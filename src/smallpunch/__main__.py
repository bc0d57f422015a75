"""``python -m smallpunch``: the same command line as the smallpunch script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
