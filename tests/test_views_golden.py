"""The program views of the four applications, pinned byte for byte.

For each application, ``views_golden.txt`` holds the DOT text that
``python -m repro export --what cdfg|bsb|dfg`` prints and the
``hierarchy_lines`` listing of its BSB hierarchy.  Each application
renders in a fresh interpreter.  The first export compiles cold into a
throwaway store and the other two render the hydrated program, so the
warm views are held to the cold compile's bytes as well.  Control-node
names such as ``loop5`` are numbered per tree, so a program compiled
after others in one process renders the same bytes.

To re-capture after an intended change to a view::

    PYTHONPATH=src:. python tests/test_views_golden.py \\
        > tests/views_golden.txt
"""

import os
import subprocess
import sys
import tempfile

import pytest

from repro import cli
from repro.apps.registry import application_names

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "views_golden.txt")

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: Renders one application's views, each under a ``=== app view ===``
#: header line.  argv: the application, then a store directory.
_RENDER = r'''
import sys
from repro import cli
from repro.bsb.hierarchy import hierarchy_lines
from repro.engine.session import Session

app, store = sys.argv[1], sys.argv[2]
for what in ("cdfg", "bsb", "dfg"):
    print("=== %s %s ===" % (app, what), flush=True)
    cli.main(["export", "--app", app, "--what", what, "--cache-dir", store])
print("=== %s hierarchy ===" % app)
print("\n".join(hierarchy_lines(Session(cache_dir=store).program(app).cdfg)))
'''


def render(app):
    """The views of ``app``, rendered in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [path for path in [env.get("PYTHONPATH")] if path])
    with tempfile.TemporaryDirectory() as store:
        return subprocess.run(
            [sys.executable, "-c", _RENDER, app, store], env=env,
            check=True, capture_output=True, text=True).stdout


def golden_sections():
    """``{app: text}`` from the golden file, one section per app."""
    sections = {}
    with open(GOLDEN, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("=== ") and line.endswith(" cdfg ===\n"):
                app = line.split()[1]
                sections[app] = ""
            sections[app] += line
    return sections


@pytest.mark.parametrize("app", application_names())
def test_views_match_the_golden_file(app):
    assert render(app) == golden_sections()[app]


def test_names_do_not_depend_on_what_the_process_compiled_before(
        tmp_path, capsys):
    """man compiled after hal into a store, in this long-lived
    process, exports the fresh interpreter's labels (``loop33``)."""
    store = str(tmp_path / "store")
    cli.main(["table1", "--apps", "hal", "man", "--budget", "50",
              "--cache-dir", store])
    capsys.readouterr()
    cli.main(["export", "--app", "man", "--what", "cdfg",
              "--cache-dir", store])
    exported = capsys.readouterr().out
    section = golden_sections()["man"]
    fresh = section[section.index("\n") + 1:section.index("=== man bsb ===")]
    assert 'label="loop33"' in fresh
    assert exported == fresh


if __name__ == "__main__":
    for name in application_names():
        sys.stdout.write(render(name))
