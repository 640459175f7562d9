"""SVL007: persisted writes must flow through repro.util.atomic."""

from repro.staticcheck.analyzer import check_source


def _lines(source, module="repro.sim.fixture"):
    return [
        f.line for f in check_source(source, module=module, select=["SVL007"])
    ]


def test_fixture_hits(fixture_source):
    findings = check_source(
        fixture_source("svl007_durability.py"),
        module="repro.sim.fixture",
        select=["SVL007"],
    )
    assert [f.line for f in findings] == [11, 15, 16, 20]
    assert all(f.code == "SVL007" for f in findings)
    assert all(f.severity == "error" for f in findings)
    # The append-mode log at the bottom of the fixture never fires.


def test_fixture_ok_is_clean(fixture_source):
    assert _lines(fixture_source("svl007_durability_ok.py")) == []


def test_interprocedural_exemption_requires_atomic_callers(fixture_source):
    """The _ok fixture's helper writes via a bare parameter and stays
    clean only because every resolved caller hands it an
    atomic_write_path temp name.  Re-point one caller at a raw path and
    the helper's write site fires again."""
    source = fixture_source("svl007_durability_ok.py").replace(
        "def republish(path, payload):\n"
        "    with atomic_write_path(path) as tmp:\n"
        "        _write_bare(tmp, payload)",
        "def republish(path, payload):\n"
        "    _write_bare(path, payload)",
    )
    assert _lines(source) == [29]  # _write_bare's write_text


def test_helper_without_callers_is_not_exempt():
    """A parameter write with no resolved caller cannot prove safety."""
    source = (
        "from pathlib import Path\n"
        "def orphan(path, payload):\n"
        "    Path(path).write_text(payload)\n"
    )
    assert _lines(source) == [3]


def test_module_level_write_is_flagged():
    source = (
        "from pathlib import Path\n"
        "Path('state.json').write_text('{}')\n"
    )
    assert _lines(source) == [2]


def test_out_of_scope_module_is_ignored():
    source = (
        "from pathlib import Path\n"
        "def save(path):\n"
        "    Path(path).write_text('x')\n"
    )
    assert _lines(source, module="repro.analysis.report") == []


def test_append_and_exclusive_modes_are_not_writes():
    source = (
        "def log(path, line):\n"
        "    with open(path, 'a') as fh:\n"
        "        fh.write(line)\n"
        "def touch(path):\n"
        "    with open(path, 'x') as fh:\n"
        "        fh.write('')\n"
    )
    assert _lines(source) == []
