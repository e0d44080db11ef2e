"""Run the command line as ``python -m fcmerge``."""
from .cli import main

if __name__ == "__main__":
    main()
