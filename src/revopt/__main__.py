"""`python -m revopt` runs the command line, as the `revopt` script does."""

from .cli import main

if __name__ == "__main__":
    main()
