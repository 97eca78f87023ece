"""The one backend setting and library loader of the three compiled
cores (:mod:`repro.native`).

The SAT engine (:data:`repro.sat.core.fast.SAT_CORE`), the RUP checker
(:data:`repro.certify.rupcore.RUP_CORE`) and the bit-blaster
(:data:`repro.arith.blastcore.BLAST_CORE`) share one fallback rule, so
every test here runs on all three:

1. **Fallback.**  Without a C compiler, or with a library that lacks
   one symbol, ``auto`` and ``fast`` run the reference with the reason
   recorded on the instance, and the output is the compiled one's: the
   pinned sweep-cell search, the certified tiny envelope with its
   per-probe verdicts, the pinned ring5-t10 clause database.  ``pure``
   records no reason, also after a failed ``fast`` request.
2. **One setting.**  ``set_default_backend`` moves all three cores.
3. **Nothing at import.**  Importing ``repro`` and starting a server
   loads no library and does not import ``ctypes``.
4. **The build helper** leaves no temporary file behind when a compile
   fails.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro.native as native
from repro.arith import IntSolver
from repro.arith.blastcore import BLAST_CORE
from repro.certify import RupChecker
from repro.certify.rupcore import RUP_CORE
from repro.sat.core import backend_status, get_backend
from repro.sat.core.fast import SAT_CORE


def _sat(name):
    backend = get_backend(name)
    return backend.name, backend.fallback_reason


def _checker(name):
    checker = RupChecker(name)
    return checker.core_name, checker.fallback_reason


def _blaster(name):
    # A blaster has no per-instance choice: the setting decides.
    with pytest.MonkeyPatch.context() as mp:
        if name is not None:
            mp.setattr(native, "_default", name)
        blaster = IntSolver().blaster
    return blaster.library, blaster.fallback_reason


def _search():
    from tests.test_encode_regression import sweep_cell_search

    return sweep_cell_search()[:4]


def _pinned_search():
    from tests.test_encode_regression import SEARCH_CONFLICTS, SEARCH_DIGEST

    return 246, True, SEARCH_CONFLICTS, SEARCH_DIGEST


def _certified():
    from tests.test_rup_core import _certified_tiny

    envelope, probes, cores = _certified_tiny()
    assert cores and set(cores) == {RupChecker().core_name}
    return envelope, probes


def _encoding():
    from repro.core import Allocator
    from tests.test_encode_regression import _db_digest, _digest_system

    tasks, arch, objective = _digest_system("ring5-t10")
    enc, *_ = Allocator(tasks, arch)._encode(objective)
    assert enc.solver.blaster.library == _blaster(None)[0]
    return _db_digest(enc.solver.sat)


def _pinned_encoding():
    from tests.test_encode_regression import ENCODING_DIGESTS

    return ENCODING_DIGESTS["ring5-t10"]


#: (core, instance on a backend name -> (what runs, fallback reason),
#: an output of the core, that output's expected value).
CORES = [
    pytest.param(SAT_CORE, _sat, _search, _pinned_search, id="sat"),
    pytest.param(RUP_CORE, _checker, _certified, _certified, id="checker"),
    pytest.param(BLAST_CORE, _blaster, _encoding, _pinned_encoding,
                 id="blaster"),
]
INSTANCES = [_sat, _checker, _blaster]


@pytest.fixture
def no_compiler(monkeypatch):
    """A host without a C compiler and a process that loaded nothing."""
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    monkeypatch.setattr(native, "_libraries", {})


@pytest.mark.parametrize("core, instance, output, expected", CORES)
def test_no_compiler_runs_the_reference_with_the_same_output(
        core, instance, output, expected, monkeypatch):
    want = expected()
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    monkeypatch.setattr(native, "_libraries", {})
    for name in ("auto", "fast"):
        used, reason = instance(name)
        assert used == "pure"
        assert "no C compiler" in reason
        monkeypatch.setattr(native, "_default", name)
        assert output() == want
    status = native.library_status(core)
    assert not status["available"] and "no C compiler" in status["reason"]
    assert status["library"] is None


@pytest.mark.parametrize("core, instance, output, expected", CORES)
def test_library_missing_a_symbol_falls_back_with_reason(
        core, instance, output, expected, monkeypatch, tmp_path):
    """A library lacking one export is a recorded fallback, never an
    AttributeError out of a wrapper's constructor."""
    cc = native.find_compiler()
    if cc is None:
        pytest.skip("no C compiler on PATH")
    missing = list(core.symbols)[-1]
    src = tmp_path / "partial.c"
    src.write_text("".join(f"int {name}(void) {{ return 0; }}\n"
                           for name in core.symbols if name != missing))
    lib = tmp_path / "partial.so"
    subprocess.run([cc, "-shared", "-fPIC", "-o", str(lib), str(src)],
                   check=True)
    build = native.build_library
    monkeypatch.setattr(native, "build_library", lambda source: (
        (str(lib), None) if source == core.source else build(source)))
    monkeypatch.setattr(native, "_libraries", {})
    for name in ("auto", "fast"):
        used, reason = instance(name)
        assert used == "pure" and missing in reason
    status = native.library_status(core)
    assert not status["available"] and missing in status["reason"]


@pytest.mark.parametrize("instance", INSTANCES)
def test_pure_records_no_reason_after_a_failed_fast_request(
        instance, no_compiler):
    assert "no C compiler" in instance("fast")[1]
    assert instance("pure") == ("pure", None)
    assert "no C compiler" in instance("fast")[1]


def test_auto_records_the_reason_on_every_core(no_compiler, monkeypatch):
    monkeypatch.setattr(native, "_default", "auto")
    for instance in INSTANCES:
        used, reason = instance(None)
        assert used == "pure" and "no C compiler" in reason
    status = backend_status()
    for key in ("fast", "checker", "blaster"):
        assert "no C compiler" in status[key]["reason"]


def test_one_setting_moves_every_core(monkeypatch):
    monkeypatch.setenv(native.BACKEND_ENV, "fast")
    monkeypatch.setattr(native, "_default", None)
    native.set_default_backend("pure")
    for instance in INSTANCES:
        assert instance(None) == ("pure", None)
    assert backend_status()["default"] == "pure"
    native.set_default_backend(None)
    assert native.default_backend_name() == "fast"


def test_status_names_every_core():
    status = backend_status()
    assert status["pure"] == {"available": True}
    for key, core in (("fast", SAT_CORE), ("checker", RUP_CORE),
                      ("blaster", BLAST_CORE)):
        assert status[key] == native.library_status(core)
        assert set(status[key]) == {"available", "reason", "library"}
        assert (status[key]["reason"] is None) == status[key]["available"]


def test_import_and_server_start_load_no_library(tmp_path):
    code = textwrap.dedent(f"""
        import asyncio, sys
        import repro
        from repro.serve import AllocationServer, ServeConfig
        async def main():
            server = AllocationServer(ServeConfig(
                state_dir={str(tmp_path / "state")!r}, workers=1))
            await server.start()
            await server.stop()
        asyncio.run(main())
        import repro.native as native
        assert native._libraries == {{}}, native._libraries
        assert "ctypes" not in sys.modules
        print("ok")
    """)
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(os.path.dirname(__file__)), "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and "ok" in proc.stdout, proc.stderr


def _timeout(*args, **kwargs):
    raise subprocess.TimeoutExpired(args[0], 120)


def _not_executable(*args, **kwargs):
    raise PermissionError(13, "Permission denied", args[0][0])


def _exit_one(*args, **kwargs):
    return subprocess.CompletedProcess(args[0], 1, "", "error: boom")


@pytest.mark.parametrize("run", [_timeout, _not_executable, _exit_one])
def test_failed_compile_leaves_no_temp_file(run, monkeypatch, tmp_path):
    monkeypatch.setattr(native.tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(native, "find_compiler", lambda: "cc")
    monkeypatch.setattr(native.subprocess, "run", run)
    path, reason = native.build_library(RUP_CORE.source)
    assert path is None and reason.startswith("compile")
    cache = tmp_path / f"repro-sat-core-{os.getuid()}"
    assert cache.is_dir() and list(cache.iterdir()) == []
