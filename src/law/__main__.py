"""``python -m law`` and the ``law`` script: run `law.cli` as ``__main__``,
which imports only the layers the chosen command runs. Importing `law.cli`
as a module loads every layer."""

import runpy


def main() -> None:
    runpy.run_module("law.cli", run_name="__main__")


if __name__ == "__main__":
    main()
