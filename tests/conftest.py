"""Let commands that the tests start as subprocesses import the package,
under the suite's warning rule.

pytest puts ``src`` on its own import path (``pythonpath`` in
pyproject.toml); a ``python -m otgrid.cli`` child only sees PYTHONPATH, so
``src`` goes there too, and the suite runs from a checkout without an install.
pytest's ``filterwarnings`` turns a RuntimeWarning into an error in-process
only; PYTHONWARNINGS does the same in a child, where its last entry wins.
"""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
os.environ["PYTHONWARNINGS"] = ",".join(
    filter(None, [os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning"]))
