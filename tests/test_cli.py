"""End-to-end command-line runs, in process."""

import json
import math
import os

import pytest

from pearl.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from conftest import set_header_pages
from pearl.config import desk_config
from pearl.flash import FlashDevice, Snapshot
from pearl.wom import WOM_3_5


@pytest.fixture
def run(tmp_path, monkeypatch, capsys):
    """Invoke the CLI with --out inside tmp_path; returns (rc, stdout)."""
    monkeypatch.chdir(tmp_path)

    def _run(*argv):
        rc = main(["--out", "runs", *argv])
        return rc, capsys.readouterr().out

    _run.dir = tmp_path
    return _run


def _manifest(run):
    path = run.dir / "runs" / "manifest.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


def _bits(value, width):
    return format(value, f"0{width}b")


# -- verify-code ------------------------------------------------------


def test_verify_code_passes_builtin(run):
    rc, out = run("verify-code", "--code", "wom3x5",
                  "--require-equal-partition")
    assert rc == EXIT_OK
    assert "two-write validity: pass" in out
    assert "equal partition: yes" in out
    (rec,) = _manifest(run)
    assert rec["command"] == "verify-code"
    assert rec["outputs"]["equal_partition"] is True


def test_verify_code_flags_skewed_partition(run):
    rc, out = run("verify-code", "--code", "wom2x3",
                  "--require-equal-partition")
    assert rc == EXIT_VIOLATION
    assert "equal partition: no" in out


def test_verify_code_rejects_broken_table(run, tmp_path):
    lines = []
    for m in range(8):
        wa, wb = WOM_3_5.second_write[m]
        first = WOM_3_5.first_write[m]
        if m == 0:
            first = WOM_3_5.first_write[1]  # two messages share a codeword
        lines.append(f"{_bits(m, 3)} {_bits(first, 5)} "
                     f"{_bits(wa, 5)} {_bits(wb, 5)}")
    path = tmp_path / "broken.code"
    path.write_text("\n".join(lines) + "\n")
    rc, out = run("verify-code", "--code-file", str(path))
    assert rc == EXIT_VIOLATION
    assert "two-write validity: FAIL" in out


# -- init / io / snapshot lifecycle -----------------------------------


def test_init_io_snapshot_roundtrip(run):
    rc, out = run("init", "--fill", "0",
                  "--hidden-password", "hidden-pw")
    assert rc == EXIT_OK
    device = os.path.join("runs", "device.img")
    assert os.path.exists(device)

    payload = os.urandom(1227)
    script = run.dir / "script.jsonl"
    script.write_text("\n".join([
        json.dumps({"volume": "public", "op": "write", "lpn": 3,
                    "data_hex": payload.hex()}),
        json.dumps({"volume": "public", "op": "read", "lpn": 3}),
    ]) + "\n")
    rc, out = run("io", "--device", device, "--script", str(script),
                  "--hidden-password", "hidden-pw")
    assert rc == EXIT_OK
    assert payload.hex() in out

    rc, out = run("snapshot", "--device", device)
    assert rc == EXIT_OK
    assert os.path.exists(os.path.join("runs", "pages.txt"))
    assert "second:" in out


def test_manifest_records_no_password(run):
    rc, _ = run("init", "--fill", "0", "--hidden-password", "s3cret",
                "--public-pass=pub-s3cret")
    assert rc == EXIT_OK
    text = (run.dir / "runs" / "manifest.jsonl").read_text()
    for secret in ("s3cret", "hidden-password", "public-pass"):
        assert secret not in text
    (rec,) = _manifest(run)
    assert rec["argv"] == ["--out", "runs", "init", "--fill", "0"]


def test_io_reports_failed_requests(run):
    rc, _ = run("init", "--fill", "0", "--hidden-password", "hidden-pw")
    assert rc == EXIT_OK
    script = run.dir / "script.jsonl"
    script.write_text(json.dumps(
        {"volume": "public", "op": "read", "lpn": 5}) + "\n")
    rc, out = run("io", "--device", os.path.join("runs", "device.img"),
                  "--script", str(script), "--hidden-password", "hidden-pw")
    assert rc == EXIT_VIOLATION
    assert "error" in out


def _io(run, *requests):
    """Run one `io` script of the given requests on runs/device.img."""
    script = run.dir / "script.jsonl"
    script.write_text("".join(json.dumps(r) + "\n" for r in requests))
    return run("io", "--device", os.path.join("runs", "device.img"),
               "--script", str(script), "--hidden-password", "hidden-pw")


@pytest.mark.parametrize("bad", [
    # A hidden-payload write: it fits the hidden volume if misrouted there.
    {"volume": "Public", "op": "write", "lpn": 3,
     "data_hex": "ab" * desk_config().layout.hidden_payload_bytes},
    {"volume": "public", "op": "write", "lpn": 3,
     "data_hex": "zz" * desk_config().layout.public_payload_bytes},
    {"volume": "public", "op": "write", "lpn": "3",
     "data_hex": "ab" * desk_config().layout.public_payload_bytes},
], ids=["unknown-volume", "non-hex-data", "non-integer-lpn"])
def test_io_rejects_bad_request_lines(run, bad):
    rc, _ = run("init", "--fill", "0", "--hidden-password", "hidden-pw")
    assert rc == EXIT_OK
    cover = os.urandom(desk_config().layout.public_payload_bytes)
    rc, out = _io(run, {"volume": "public", "op": "write", "lpn": 0,
                        "data_hex": cover.hex()}, bad)
    assert rc == EXIT_VIOLATION
    lines = out.splitlines()
    assert lines[0] == "1: wrote public lpn 0"
    assert lines[1].startswith("2: error: ") and len(lines) == 2
    assert _manifest(run)[-1]["outputs"]["failures"] == 1
    # Nothing reached either volume.
    rc, out = _io(run, {"volume": "public", "op": "read", "lpn": 3},
                  {"volume": "hidden", "op": "read", "lpn": 3})
    assert rc == EXIT_VIOLATION
    assert out.startswith("1: error: ") and "\n2: error: " in out


def test_io_reports_a_negative_trim_and_saves_the_image(run):
    rc, _ = run("init", "--fill", "0.5", "--hidden-password", "hidden-pw")
    assert rc == EXIT_OK
    device = run.dir / "runs" / "device.img"
    image = device.read_bytes()
    rc, out = _io(run, {"volume": "public", "op": "trim", "lpn": -700})
    assert rc == EXIT_VIOLATION
    assert out.splitlines() == [
        "1: error: public lpn -700 beyond volume capacity"]
    assert _manifest(run)[-1]["outputs"]["failures"] == 1
    assert device.read_bytes() == image


def test_io_reports_each_request(run):
    rc, _ = run("init", "--fill", "0", "--hidden-password", "hidden-pw")
    assert rc == EXIT_OK
    lay = desk_config().layout
    public = os.urandom(lay.public_payload_bytes)
    hidden = os.urandom(lay.hidden_payload_bytes)
    rc, out = _io(run,
                  {"volume": "public", "op": "write", "lpn": 0,
                   "data_hex": public.hex()},
                  {"volume": "hidden", "op": "write", "lpn": 2,
                   "data_hex": hidden.hex()},
                  {"volume": "hidden", "op": "read", "lpn": 2},
                  {"volume": "hidden", "op": "trim", "lpn": 2},
                  {"volume": "public", "op": "erase", "lpn": 0})
    assert rc == EXIT_VIOLATION
    assert out.splitlines() == [
        "1: wrote public lpn 0", "2: wrote hidden lpn 2",
        f"3: hidden lpn 2 = {hidden.hex()}", "4: trimmed hidden lpn 2",
        "5: error: unknown op 'erase'"]


@pytest.mark.parametrize("overrides, message", [
    ({"public_fraction": 0.7}, "public capacity fraction"),
    ({"cpu_overhead_us": 2.0}, "cpu_overhead_us"),
    ({"gc_watermark_blocks": 3}, "gc_watermark_blocks"),
])
def test_bad_config_file_is_a_usage_error(run, capsys, overrides, message):
    path = run.dir / "cfg.json"
    path.write_text(json.dumps(overrides))
    # Straight through main: the run fixture discards standard error.
    rc = main(["--out", "runs", "--config", str(path), "init", "--fill", "0"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:")
    assert message in err


@pytest.mark.parametrize("fraction", [math.inf, math.nan])
@pytest.mark.parametrize("volume", ["public", "hidden"])
def test_a_non_finite_fraction_in_a_config_file_is_a_usage_error(
        run, capsys, volume, fraction):
    """json writes them as Infinity and NaN, which json.load reads back."""
    path = run.dir / "cfg.json"
    path.write_text(json.dumps({f"{volume}_fraction": fraction}))
    rc = main(["--out", "runs", "--config", str(path), "bench"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        f"error: invalid configuration: {volume} capacity fraction "
        f"{fraction} is not a finite number")


def test_io_on_a_header_with_out_of_bounds_volume_sizes_is_a_usage_error(
        run, capsys):
    rc, _ = run("init", "--fill", "0")
    assert rc == EXIT_OK
    path = str(run.dir / "runs" / "device.img")
    device = FlashDevice.restore(Snapshot.load(path))
    set_header_pages(device, public=0)
    device.snapshot().save(path)
    script = run.dir / "script.jsonl"
    script.write_text(json.dumps(
        {"volume": "public", "op": "read", "lpn": 0}) + "\n")
    # Straight through main: the run fixture discards standard error.
    rc = main(["--out", "runs", "io", "--device", path, "--script",
               str(script)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: header volume sizes")


def test_missing_device_is_a_usage_error(run):
    rc, _ = run("snapshot", "--device", "no-such.img")
    assert rc == EXIT_USAGE


# -- bench ------------------------------------------------------------


def test_bench_baseline_writes_reports(run):
    rc, out = run("bench", "--ftl", "dftl", "--requests", "40",
                  "--fill", "0.6")
    assert rc == EXIT_OK
    assert "requests 40" in out
    assert os.path.exists(os.path.join("runs", "dftl-data.csv"))
    summary = json.load(open(os.path.join("runs", "dftl-data.summary.json")))
    assert summary["requests"] == 40
    rec = _manifest(run)[-1]
    assert rec["command"] == "bench"
    assert rec["outputs"]["requests"] == 40


def test_bench_all_public_writes_from_empty(run):
    rc, out = run("bench", "--fill", "0", "--read-fraction", "0",
                  "--requests", "40")
    assert rc == EXIT_OK
    assert "requests 40" in out
    summary = json.load(open(os.path.join("runs",
                                          "pearl-public.summary.json")))
    # No hidden write ran, so there is no hidden ratio to report.
    assert summary["amplification"] == {"public_user": 5 / 3}


# -- attack -----------------------------------------------------------


def test_attack_finds_nothing_on_compliant_ftl(run):
    rc, out = run("attack", "--experiment", "ui1", "--ftl", "pearl",
                  "--trials", "1")
    assert rc == EXIT_OK
    assert "no distinguisher" in out


def test_attack_finds_no_implausible_transition_on_compliant_ftl(run):
    rc, out = run("attack", "--experiment", "transitions", "--ftl", "pearl",
                  "--trials", "1")
    assert rc == EXIT_OK
    assert "no distinguisher" in out


def test_attack_detects_broken_allocator(run):
    rc, out = run("attack", "--experiment", "ui1", "--ftl", "mutant",
                  "--trials", "1")
    assert rc == EXIT_VIOLATION
    assert "distinguished" in out
