"""The two serving CLIs drain on SIGTERM.

``python -m repro.serve`` and ``python -m repro.coordinate`` run as real
processes: each announces ``listening on HOST:PORT``, answers a PING
(and the coordinator a QUERY), then exits 0 within 15 s of SIGTERM.
"""

import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

from repro.coordinate import CoordinatorClient
from repro.net import SiteClient

SRC = Path(__file__).resolve().parent.parent / "src"


def _start(module, *args):
    """Run ``python -m module args`` until it announces its address."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", module, "--port", "0", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    watchdog = threading.Timer(60.0, process.kill)  # never hang the suite
    watchdog.start()
    lines = []
    for line in process.stdout:
        lines.append(line)
        found = re.search(r"listening on ([\d.]+):(\d+)", line)
        if found:
            watchdog.cancel()
            return process, found.group(1), int(found.group(2))
    watchdog.cancel()
    process.wait()
    raise AssertionError(f"{module} never listened: {''.join(lines)}")


def _terminate(process):
    """SIGTERM; the exit code and the rest of stdout."""
    process.send_signal(signal.SIGTERM)
    try:
        rest, _ = process.communicate(timeout=15.0)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise AssertionError("no exit within 15 s of SIGTERM") from None
    return process.returncode, rest


def test_the_site_server_cli_drains_on_sigterm():
    process, host, port = _start("repro.serve", "--site", "s0")
    client = SiteClient(host, port)
    try:
        assert client.ping()["site"] == "s0"
    finally:
        client.close()
    code, _ = _terminate(process)
    assert code == 0


def test_the_coordinator_cli_drains_on_sigterm():
    process, host, port = _start("repro.coordinate", "--scale", "0.001")
    client = CoordinatorClient(host, port)
    try:
        assert client.ping()["site"] == "coordinator"
        reply = client.query(
            'count(collection("Citems")/Item)', collection="Citems"
        )
        assert int(reply["result_text"]) > 0
    finally:
        client.close()
    code, rest = _terminate(process)
    assert code == 0
    assert "drained cleanly" in rest
