"""``python -m bellpoly``: the same command line as the ``bellpoly`` script."""

from .cli import main

main()
