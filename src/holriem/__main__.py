"""``python -m holriem``: the same entry point as the ``holriem`` command."""

from .cli import main

if __name__ == "__main__":
    main()
