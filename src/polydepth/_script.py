"""The installed ``polydepth`` command.

It runs ``polydepth.cli`` as the program, the way ``python -m
polydepth.cli`` does, and does not import it: an import of
``polydepth.cli`` loads every command module, while the program loads
only the modules its command runs.
"""

import runpy


def main() -> None:
    runpy.run_module("polydepth.cli", run_name="__main__")
