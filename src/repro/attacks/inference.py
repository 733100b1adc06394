"""Inference-time confidentiality attacks from the Fig. 1 taxonomy.

Two deployment-stage attacks the taxonomy attributes to most model
families:

* **membership inference** — decide whether a record was in the training
  set from the model's prediction confidence (Shokri et al.);
* **model stealing / extraction** — reconstruct a functional surrogate by
  querying the prediction API (Tramèr et al.), measured by *fidelity*
  (agreement with the victim on fresh inputs).

Both are black-box: they only need ``QUERY_MODEL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.attacks.base import Capability, CostClock, ThreatModel
from repro.ml.model import Classifier, clone
from repro.privacy.membership import membership_inference_risk


@dataclass
class MembershipInferenceResult:
    """Outcome of a membership-inference evaluation."""

    advantage: float  # best-threshold TPR − FPR, in [0, 1]
    n_members: int
    n_non_members: int

    @property
    def is_leaky(self) -> bool:
        """Rule of thumb: advantage above 0.2 signals memorisation."""
        return self.advantage > 0.2


class MembershipInferenceAttack:
    """Confidence-threshold membership inference against a fitted model."""

    required_capabilities = (Capability.QUERY_MODEL,)

    def __init__(self, threat_model: Optional[ThreatModel] = None) -> None:
        self.threat_model = threat_model

    def evaluate(
        self,
        model: Classifier,
        X_members: np.ndarray,
        X_non_members: np.ndarray,
    ) -> MembershipInferenceResult:
        """Measure the attacker's advantage on known member/non-member sets."""
        if self.threat_model is not None and not self.threat_model.allows(
            *self.required_capabilities
        ):
            raise PermissionError(
                f"threat model {self.threat_model.name!r} cannot query the model"
            )
        advantage = membership_inference_risk(model, X_members, X_non_members)
        return MembershipInferenceResult(
            advantage=advantage,
            n_members=len(X_members),
            n_non_members=len(X_non_members),
        )


@dataclass
class ModelStealingResult:
    """Outcome of a model-extraction attack."""

    surrogate: Classifier
    fidelity: float  # agreement with the victim on held-out queries
    n_queries: int
    cost_seconds: float
    details: Dict[str, float] = field(default_factory=dict)


class ModelStealingAttack:
    """Query-based model extraction.

    Parameters
    ----------
    surrogate_factory:
        Builds the (unfitted) surrogate model the attacker trains; defaults
        to cloning the victim's architecture — the strongest extraction
        assumption — but any classifier works.
    n_queries:
        Prediction-API calls the attacker spends.
    query_sampler:
        Callable ``(n, rng) -> X`` generating query inputs; defaults to
        resampling from a reference distribution the caller supplies to
        :meth:`steal`.
    """

    required_capabilities = (Capability.QUERY_MODEL,)

    def __init__(
        self,
        surrogate_factory: Optional[Callable[[], Classifier]] = None,
        n_queries: int = 500,
        seed: int = 0,
        threat_model: Optional[ThreatModel] = None,
        cost_clock: Optional[CostClock] = None,
    ) -> None:
        if n_queries < 10:
            raise ValueError("n_queries must be >= 10")
        self.surrogate_factory = surrogate_factory
        self.n_queries = n_queries
        self.seed = seed
        self.threat_model = threat_model
        self.cost_clock = cost_clock if cost_clock is not None else CostClock()

    def steal(
        self,
        victim: Classifier,
        X_reference: np.ndarray,
        X_eval: Optional[np.ndarray] = None,
    ) -> ModelStealingResult:
        """Extract a surrogate using queries shaped like ``X_reference``.

        Queries are jittered bootstrap samples of the reference rows (the
        attacker knows the input domain, not the training data).  Fidelity
        is measured on ``X_eval`` (defaults to the reference rows).
        """
        if self.threat_model is not None and not self.threat_model.allows(
            *self.required_capabilities
        ):
            raise PermissionError(
                f"threat model {self.threat_model.name!r} cannot query the model"
            )
        X_reference = np.asarray(X_reference, dtype=np.float64)
        if X_reference.ndim != 2 or X_reference.shape[0] < 2:
            raise ValueError("X_reference must be 2-D with >= 2 rows")
        rng = np.random.default_rng(self.seed)
        started = self.cost_clock.now()
        rows = rng.integers(0, X_reference.shape[0], size=self.n_queries)
        scale = X_reference.std(axis=0)
        queries = X_reference[rows] + rng.normal(
            0.0, 0.1, size=(self.n_queries, X_reference.shape[1])
        ) * scale
        labels = victim.predict(queries)  # the prediction-API calls
        if self.surrogate_factory is not None:
            surrogate = self.surrogate_factory()
        else:
            surrogate = clone(victim)
        surrogate.fit(queries, labels)
        cost = self.cost_clock.now() - started
        X_eval = X_reference if X_eval is None else np.asarray(X_eval)
        fidelity = float(
            np.mean(surrogate.predict(X_eval) == victim.predict(X_eval))
        )
        return ModelStealingResult(
            surrogate=surrogate,
            fidelity=fidelity,
            n_queries=self.n_queries,
            cost_seconds=cost,
            details={"queries_per_second": self.n_queries / max(cost, 1e-9)},
        )
