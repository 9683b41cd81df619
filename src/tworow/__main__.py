"""``python -m tworow``: the same command line as the ``tworow`` script."""

from .cli import run

if __name__ == "__main__":
    run()
