import json
import os
import pathlib

import pytest
from hypothesis import settings

import deolog
from deolog.documents import model_from_doc

DATA = pathlib.Path(__file__).parent / "data"

# every property test runs the same examples on each run, keeps none between
# runs and has no per-example deadline: a search's time varies with the host
settings.register_profile("deolog", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deolog")

# tests that start deolog in a child process (python -m deolog, python -c)
# need it importable there from where this run imports it, also when pytest
# found it through pyproject.toml's pythonpath rather than PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(pathlib.Path(deolog.__file__).parent.parent),
                  os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def appendix_path():
    return DATA / "appendix_model.json"


@pytest.fixture(scope="session")
def appendix_model(appendix_path):
    with open(appendix_path) as fh:
        return model_from_doc(json.load(fh))
