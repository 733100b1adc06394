"""``python -m repro`` entry point."""

import os
import sys

from repro.cli import main

if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe must surface inside the try
    except BrokenPipeError:
        # The reader went away (``python -m repro ... | head``).  Point
        # stdout at devnull so the interpreter's flush at exit cannot raise
        # again, and exit without a traceback (Python docs, "Note on
        # SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)
