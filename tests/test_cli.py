"""Tests for the command-line interface."""

import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.rounds == 3
        assert args.store == "kv://4"

    def test_campaign_flags(self):
        args = build_parser().parse_args(["campaign", "--small", "--seed", "5"])
        assert args.small and args.seed == 5

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "datastore" in out

    def test_run_small(self, capsys):
        assert main(["run", "--rounds", "1", "--store", "kv://2"]) == 0
        out = capsys.readouterr().out
        assert "snapshots" in out
        assert "cg_finished" in out

    def test_run_rejects_bad_store_url(self, capsys):
        assert main(["run", "--rounds", "1", "--store", "kv://abc"]) == 2
        assert "kv://abc" in capsys.readouterr().err

    def test_run_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "app.toml"
        cfg.write_text(
            '[application]\nstore_url = "kv://2"\nseed = 1\n'
            "[workflow]\nbeads_per_type = 6\n"
        )
        assert main(["run", "--config", str(cfg), "--rounds", "1"]) == 0
        assert "snapshots" in capsys.readouterr().out

    def test_campaign_small(self, capsys):
        assert main(["campaign", "--small"]) == 0
        out = capsys.readouterr().out
        assert "node-hours" in out
        assert "GPU occupancy" in out

    def test_campaign_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "camp.toml"
        cfg.write_text(
            "[campaign]\nseed = 2\n"
            "[[campaign.ledger]]\nnnodes = 10\nwalltime_hours = 2\ncount = 1\n"
        )
        assert main(["campaign", "--config", str(cfg)]) == 0
        assert "20" in capsys.readouterr().out  # 10 nodes * 2h

    def test_persistent(self, capsys):
        assert main(["persistent", "--node-hours", "200", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "cluster" in out
        assert "persisted across allocations" in out

    def test_emulate(self, capsys):
        assert main(["emulate", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "traversal reduction" in out

    def test_chaos_fuzz_writes_report_and_trace(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        trace = tmp_path / "trace.jsonl"
        argv = ["chaos", "--seed", "7", "--rounds", "3", "--campaigns", "2",
                "--report", str(report), "--trace", str(trace)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "campaign(s) green" in out
        assert report.exists() and trace.exists()
        # Determinism contract: a second run is byte-identical.
        first_report, first_trace = report.read_bytes(), trace.read_bytes()
        assert main(argv) == 0
        capsys.readouterr()
        assert report.read_bytes() == first_report
        assert trace.read_bytes() == first_trace

    def test_chaos_replay_round_trip(self, tmp_path, capsys):
        from repro.chaos import ChaosConfig, FaultSchedule, save_replay

        path = tmp_path / "replay.json"
        save_replay(str(path),
                    FaultSchedule().shard_down(30.0, 1).shard_up(90.0, 1),
                    ChaosConfig(seed=5, rounds=2))
        assert main(["chaos", "--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 fault event(s)" in out


def test_python_dash_m_entrypoint():
    """The module actually runs as `python -m repro`."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "info"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "MuMMI" in proc.stdout


class _LineReader:
    """Lines from a child's binary stdout, with a deadline per line."""

    def __init__(self, stream):
        self._fd = stream.fileno()
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._fd, selectors.EVENT_READ)
        self._buf = b""

    def until(self, needle, timeout=30.0):
        """Return the first line containing ``needle``."""
        deadline = time.monotonic() + timeout
        while True:
            while b"\n" in self._buf:
                line, self._buf = self._buf.split(b"\n", 1)
                if needle in line.decode():
                    return line.decode()
            left = deadline - time.monotonic()
            assert left > 0, f"no line with {needle!r} within {timeout} s"
            if self._sel.select(left):
                chunk = os.read(self._fd, 4096)
                assert chunk, f"process exited before printing {needle!r}"
                self._buf += chunk

    def close(self):
        self._sel.close()


class TestNetKVServe:
    def test_serve_caps_connections_and_stops_on_sigint(self):
        """Without ``--persist`` the shard still honours ``--max-conns``;
        SIGINT stops it cleanly."""
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "netkv", "--serve", "1",
             "--max-conns", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        lines = _LineReader(proc.stdout)
        try:
            line = lines.until("netkv://")
            assert "(max 1 connections/shard)" in line
            host, port = re.search(r"netkv://([^:\s]+):(\d+)", line).groups()
            addr = (host, int(port))
            lines.until("press Ctrl-C")
            with socket.create_connection(addr, timeout=5) as first:
                first.sendall(b"PING\n")
                first.settimeout(5)
                reply = b""
                while not reply.endswith(b"PONG"):
                    chunk = first.recv(64)
                    assert chunk, reply
                    reply += chunk
                assert reply == b"OK 4\nPONG"
                # The one slot is taken: the next accept is closed at once.
                with socket.create_connection(addr, timeout=5) as second:
                    second.settimeout(5)
                    try:
                        second.sendall(b"PING\n")
                        assert second.recv(64) == b""
                    except ConnectionError:
                        pass
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            assert "stopped 1 shard(s)" in out
        finally:
            lines.close()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


class TestNetKVAdminFlags:
    def test_migrate_requires_slots_and_to(self, capsys):
        assert main(["netkv", "--migrate", "netkv://h:1?replication=2"]) == 2
        assert "--slots and --to" in capsys.readouterr().err

    def test_migrate_requires_explicit_replication(self, capsys):
        # Migration windows come from the replication factor; defaulting
        # it silently prunes replica copies (see OPERATIONS.md).
        assert main(["netkv", "--migrate", "netkv://h:1",
                     "--slots", "0-10", "--to", "0"]) == 2
        assert "replication" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["x", "5-1", "1-2-3", "-4", ""])
    def test_bad_slot_range_is_rejected(self, spec, capsys):
        assert main(["netkv", "--migrate", "netkv://h:1?replication=2",
                     "--slots", spec, "--to", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_slot_range_parsing(self):
        from repro.cli import _parse_slot_range
        assert list(_parse_slot_range("7")) == [7]
        assert list(_parse_slot_range("3-5")) == [3, 4, 5]
