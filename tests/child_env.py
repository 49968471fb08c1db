"""The environment of a child interpreter that a test starts."""

import os

import braidkit

SRC = os.path.dirname(os.path.dirname(braidkit.__file__))


def child_env(**extra) -> dict:
    """os.environ with src first on PYTHONPATH, then the caller's path.

    Keeping the caller's path keeps importable the packages found
    through it, pytest and hypothesis included.
    """
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)
