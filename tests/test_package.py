"""Public surface of the package."""

import subprocess
import sys

import cvteleport


def test_every_exported_name_resolves():
    for name in cvteleport.__all__:
        assert hasattr(cvteleport, name), name


def test_cold_start_loads_no_thread_pool_or_logging():
    # concurrent.futures pulls in logging; the jitter Monte Carlo imports it
    # when it runs, so the command line's start-up never pays for it
    probe = ("import sys, cvteleport.cli; "
             "print(sorted({'concurrent.futures', 'logging'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
