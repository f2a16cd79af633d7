"""``python -m scorekit``: the command-line interface."""

from .cli import main

main()
