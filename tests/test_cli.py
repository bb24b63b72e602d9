"""Top-level command line: boot, demo, bench, resources, wallet passthrough."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:     # Python 3.10: pytest's own TOML reader
    import tomli as tomllib

import teefab
from teefab.bench import run_bench
from teefab.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture(autouse=True)
def run_in_tmp_path(tmp_path, monkeypatch):
    """A command without --storage-dir makes the default `teefab-storage`
    in the working directory: here, not in the checkout."""
    monkeypatch.chdir(tmp_path)


def test_boot_prints_slot_table(capsys):
    assert main(["boot", "--enclaves", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "fabric up: 3 enclave slot(s) on zu3eg" in out
    lines = out.strip().splitlines()
    assert len(lines) == 2 + 3
    assert all("FREE" in line for line in lines[2:])


def test_boot_refuses_impossible_count(capsys):
    assert main(["boot", "--enclaves", "7"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "exceeds" in err


def test_demo_increment(capsys):
    assert main(["demo", "increment", "--value", "41",
                 "--enclaves", "1", "--seed", "2"]) == 0
    assert capsys.readouterr().out.strip() == "42"


def test_demo_increment_wraps(capsys):
    assert main(["demo", "increment", "--value", "4294967295",
                 "--enclaves", "1", "--seed", "2"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_demo_shmem16(capsys):
    assert main(["demo", "shmem16", "--enclaves", "1", "--seed", "2"]) == 0
    assert capsys.readouterr().out.strip() == "000102030405060708090a0b0c0d0e0f"


def test_bench_quick_run(capsys):
    assert main(["bench", "--repetitions", "2", "--ns-per-byte", "0",
                 "--ns-per-op", "0", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    for name in ("cold_open", "warm_open", "invoke_raw", "invoke_shm",
                 "close", "ratio=cold_over_warm", "ratio=shm_over_raw"):
        assert name in out



def test_bench_leaves_no_temporary_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert main(["bench", "--repetitions", "1", "--ns-per-byte", "0",
                 "--ns-per-op", "0"]) == 0
    assert list(tmp_path.iterdir()) == []

def test_resources_report(capsys):
    assert main(["resources", "--enclaves", "4"]) == 0
    out = capsys.readouterr().out
    assert "design: 4 enclave(s) on zu3eg" in out
    assert "35.37%" in out and "62.96%" in out


def test_resources_with_profile_file(tmp_path, capsys):
    profile = tmp_path / "dev.profile"
    profile.write_text(
        "name = custom\nlut = 70560\nlutram = 28800\nff = 141120\n"
        "bram = 216\ndsp = 360\nio = 82\nbufg = 196\n")
    assert main(["resources", "--enclaves", "2",
                 "--device", str(profile)]) == 0
    assert "on custom" in capsys.readouterr().out


def test_config_file_feeds_all_commands(tmp_path, capsys):
    conf = tmp_path / "sim.conf"
    conf.write_text("enclave_count = 2\nrng_seed = 5\n")
    assert main(["boot", "--config", str(conf)]) == 0
    assert "2 enclave slot(s)" in capsys.readouterr().out
    assert main(["boot", "--config", str(conf), "--enclaves", "1"]) == 0
    assert "1 enclave slot(s)" in capsys.readouterr().out


def test_uart_dir_mirrors_logs(tmp_path, capsys):
    uart_dir = tmp_path / "uart"
    assert main(["demo", "increment", "--enclaves", "1", "--seed", "2",
                 "--uart-dir", str(uart_dir)]) == 0
    capsys.readouterr()
    logs = list(uart_dir.glob("enclave*.log"))
    assert logs and "boot: ta" in logs[0].read_text()


def test_wallet_passthrough(tmp_path, capsys):
    store = str(tmp_path / "wallet-store")
    assert main(["wallet", "--", "1", "0", "--storage-dir", store]) == 0
    assert capsys.readouterr().out.strip() == "missing"
    assert main(["wallet", "2", "1234", "--storage-dir", store]) == 0
    assert len(capsys.readouterr().out.split()) == 12
    assert main(["wallet", "1", "0", "--storage-dir", store]) == 0
    assert capsys.readouterr().out.strip() == "exists"
    assert main(["wallet", "2", "1234", "--storage-dir", store]) == 1
    assert "already exists" in capsys.readouterr().err


def test_wallet_names_restore_for_an_unreadable_record(tmp_path, capsys):
    store = tmp_path / "wallet-store"
    args = ["--storage-dir", str(store)]
    assert main(["wallet", "2", "1234", *args]) == 0
    phrase = capsys.readouterr().out.split()
    [record] = store.glob("*/*")
    blob = bytearray(record.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    record.write_bytes(bytes(blob))
    assert main(["wallet", "6", "1234", "-a", "0", *args]) == 1
    err = capsys.readouterr().err
    assert "record could not be read" in err and "`wallet 3` (restore)" in err
    assert main(["wallet", "3", "1234", "-a", *phrase, *args]) == 0
    assert main(["wallet", "6", "1234", "-a", "0", *args]) == 0
    assert capsys.readouterr().out.split()[-1].startswith("1")


def test_wallet_module_runs_without_a_runpy_warning(tmp_path):
    """`python -m teefab.wallet.client` is not imported before runpy runs
    it, so it starts with no RuntimeWarning."""
    src = str(Path(teefab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "teefab.wallet.client", "1", "0000",
         "--storage-dir", str(tmp_path / "w")],
        env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "missing"


@pytest.mark.parametrize("argv", [
    ["bench", "--enclaves", "3"], ["bench", "--config", "sim.conf"],
    ["bench", "--device", "zu3eg"], ["bench", "--storage-dir", "store"],
    ["bench", "--uart-dir", "uart"], ["resources", "--seed", "1"],
    ["resources", "--storage-dir", "store"], ["resources", "--uart-dir", "uart"],
], ids=lambda argv: " ".join(argv[:2]))
def test_a_command_refuses_an_option_it_has_no_use_for(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["boot", "--seed", "-1"],
    ["demo", "increment", "--seed", str(2**64)],
    ["bench", "--repetitions", "1", "--seed", "-1"],
    ["boot", "--config", "seed.conf"],
], ids=["boot", "demo", "bench", "config_file"])
def test_an_out_of_range_seed_is_one_error_line(argv, capsys):
    Path("seed.conf").write_text("rng_seed = -1\n")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rng_seed must be an integer in " \
        "0..2**64-1" in err and err.count("\n") == 1


@pytest.mark.parametrize("count", ["0", "-3", "x"])
def test_bench_refuses_a_repetition_count_below_one(count, capsys):
    """A usage error naming the option, before any scenario runs."""
    with pytest.raises(SystemExit) as info:
        main(["bench", "--repetitions", count])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --repetitions: " + (
        f"invalid int value: '{count}'" if count == "x"
        else f"must be at least 1, got {count}") in err


@pytest.mark.parametrize("count", [0, -1])
def test_run_bench_refuses_a_repetition_count_below_one(count, tmp_path):
    with pytest.raises(ValueError, match="repetitions must be at least 1"):
        run_bench(repetitions=count, per_byte_ns=0, per_op_ns=0,
                  storage_dir=str(tmp_path / "bench-store"))
    assert not (tmp_path / "bench-store").exists()


def test_unknown_subcommand_exits_with_usage():
    with pytest.raises(SystemExit):
        main(["conjure"])


def test_bad_config_path_reports_error(capsys):
    assert main(["boot", "--config", "/nonexistent/sim.conf"]) == 1
    assert "error:" in capsys.readouterr().err


def test_the_version_has_one_source():
    """pyproject.toml states no version of its own: setuptools reads
    `teefab.__version__`, so the two cannot disagree."""
    with PYPROJECT.open("rb") as file:
        meta = tomllib.load(file)
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "teefab.__version__"}
