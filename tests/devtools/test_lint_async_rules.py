"""Per-rule fixtures for the async-concurrency family (RAP006–RAP010).

Mirrors ``test_lint_rules.py``: at least one failing and one passing
snippet per rule, plus the ``--select`` range expansion and the JSON
report format the CI lint job uploads.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.devtools.lint import (
    LintConfig,
    expand_code_ranges,
    lint_source,
    render_json,
)
from repro.errors import LintConfigError


def run(source: str, filename: str = "snippet.py", config: LintConfig = None):
    effective = config if config is not None else LintConfig.default()
    return lint_source(source, Path(filename), effective)


def codes(diagnostics):
    return [diagnostic.code for diagnostic in diagnostics]


# ----------------------------------------------------------------------
# RAP006 — blocking calls in async def
# ----------------------------------------------------------------------
class TestRap006:
    def test_time_sleep_flagged(self):
        diags = run("import time\nasync def f():\n    time.sleep(1)\n")
        assert codes(diags) == ["RAP006"]
        assert "time.sleep" in diags[0].message

    def test_from_import_sleep_flagged(self):
        diags = run("from time import sleep\nasync def f():\n    sleep(1)\n")
        assert codes(diags) == ["RAP006"]

    def test_asyncio_sleep_passes(self):
        clean = "import asyncio\nasync def f():\n    await asyncio.sleep(1)\n"
        assert run(clean) == []

    def test_open_flagged(self):
        diags = run("async def f(p):\n    return open(p).read()\n")
        assert codes(diags) == ["RAP006"]

    def test_path_io_flagged(self):
        diags = run(
            "from pathlib import Path\n"
            "async def f(p):\n"
            "    Path(p).write_text('x')\n"
        )
        assert codes(diags) == ["RAP006"]

    def test_subprocess_flagged(self):
        diags = run(
            "import subprocess\n"
            "async def f():\n"
            "    subprocess.run(['true'])\n"
        )
        assert codes(diags) == ["RAP006"]

    def test_socket_flagged(self):
        diags = run(
            "import socket\n"
            "async def f(h):\n"
            "    return socket.create_connection((h, 80))\n"
        )
        assert codes(diags) == ["RAP006"]

    def test_engine_handle_flagged(self):
        diags = run(
            "class S:\n"
            "    async def answer(self, req):\n"
            "        return self._engine.handle(req)\n"
        )
        assert codes(diags) == ["RAP006"]
        assert "_engine.handle" in diags[0].message

    def test_kernel_import_flagged(self):
        diags = run(
            "from repro.core.kernel import evaluate_placement\n"
            "async def f(scenario, raps):\n"
            "    return evaluate_placement(scenario, raps)\n"
        )
        assert codes(diags) == ["RAP006"]

    def test_run_in_executor_passes(self):
        clean = (
            "import asyncio\n"
            "from pathlib import Path\n"
            "async def f(p):\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, Path(p).write_text, 'x')\n"
        )
        assert run(clean) == []

    def test_sync_function_passes(self):
        assert run("import time\ndef f():\n    time.sleep(1)\n") == []

    def test_nested_sync_def_passes(self):
        clean = (
            "import time\n"
            "async def f():\n"
            "    def helper():\n"
            "        time.sleep(1)\n"
            "    return helper\n"
        )
        assert run(clean) == []

    def test_allowlist_config(self):
        source = "import time\nasync def f():\n    time.sleep(1)\n"
        widened = replace(
            LintConfig.default(), async_blocking_allowed=("time.sleep",)
        )
        assert run(source, config=widened) == []
        assert codes(run(source)) == ["RAP006"]

    def test_pragma_suppresses(self):
        source = (
            "import time\n"
            "async def f():\n"
            "    time.sleep(1)  # rapflow: noqa[RAP006] calibration stall\n"
        )
        assert run(source) == []


# ----------------------------------------------------------------------
# RAP007 — dropped tasks / un-awaited coroutines
# ----------------------------------------------------------------------
class TestRap007:
    def test_bare_create_task_flagged(self):
        diags = run(
            "import asyncio\n"
            "async def f(coro):\n"
            "    asyncio.create_task(coro)\n"
        )
        assert codes(diags) == ["RAP007"]
        assert "create_task" in diags[0].message

    def test_bare_ensure_future_flagged(self):
        diags = run(
            "import asyncio\n"
            "async def f(coro):\n"
            "    asyncio.ensure_future(coro)\n"
        )
        assert codes(diags) == ["RAP007"]

    def test_unawaited_local_coroutine_flagged(self):
        diags = run(
            "async def work():\n"
            "    return 1\n"
            "async def f():\n"
            "    work()\n"
        )
        assert codes(diags) == ["RAP007"]
        assert "neither awaited nor scheduled" in diags[0].message

    def test_stored_task_passes(self):
        clean = (
            "import asyncio\n"
            "async def f(coro):\n"
            "    task = asyncio.create_task(coro)\n"
            "    await task\n"
        )
        assert run(clean) == []

    def test_awaited_coroutine_passes(self):
        clean = (
            "async def work():\n"
            "    return 1\n"
            "async def f():\n"
            "    await work()\n"
        )
        assert run(clean) == []

    def test_cross_module_call_out_of_scope(self):
        # A single-file rule cannot know foreign call targets are
        # coroutines; the runtime leak check covers those.
        assert run("import os\ndef f():\n    os.getpid()\n") == []


# ----------------------------------------------------------------------
# RAP008 — cross-context shared state
# ----------------------------------------------------------------------
class TestRap008:
    THREAD_AND_LOOP = (
        "import threading\n"
        "class T:\n"
        "    def pump(self):\n"
        "        self.samples.append(1)\n"
        "    async def flush(self):\n"
        "        self.samples.append(2)\n"
        "    def launch(self):\n"
        "        threading.Thread(target=self.pump).start()\n"
    )

    def test_unlocked_attribute_flagged(self):
        diags = run(self.THREAD_AND_LOOP)
        assert codes(diags) == ["RAP008"]
        assert "'T.samples'" in diags[0].message

    def test_lock_guard_passes(self):
        clean = (
            "import threading\n"
            "class T:\n"
            "    def pump(self):\n"
            "        with self.lock:\n"
            "            self.samples.append(1)\n"
            "    async def flush(self):\n"
            "        with self.lock:\n"
            "            self.samples.append(2)\n"
            "    def launch(self):\n"
            "        threading.Thread(target=self.pump).start()\n"
        )
        assert run(clean) == []

    def test_async_with_lock_passes(self):
        clean = (
            "import threading\n"
            "class T:\n"
            "    def pump(self):\n"
            "        with self.lock:\n"
            "            self.samples.append(1)\n"
            "    async def flush(self):\n"
            "        async with self.lock:\n"
            "            self.samples.append(2)\n"
            "    def launch(self):\n"
            "        threading.Thread(target=self.pump).start()\n"
        )
        assert run(clean) == []

    def test_module_global_flagged(self):
        diags = run(
            "import threading\n"
            "BUFFER = []\n"
            "def pump():\n"
            "    BUFFER.append(1)\n"
            "async def flush():\n"
            "    BUFFER.append(2)\n"
            "def launch():\n"
            "    threading.Thread(target=pump).start()\n"
        )
        assert codes(diags) == ["RAP008"]
        assert "'BUFFER'" in diags[0].message

    def test_executor_submit_entry_flagged(self):
        diags = run(
            "class T:\n"
            "    def job(self):\n"
            "        self.done += 1\n"
            "    async def poll(self):\n"
            "        self.done += 1\n"
            "    def kick(self, executor):\n"
            "        executor.submit(self.job)\n"
        )
        assert codes(diags) == ["RAP008"]

    def test_no_thread_entries_passes(self):
        clean = (
            "class T:\n"
            "    def pump(self):\n"
            "        self.samples.append(1)\n"
            "    async def flush(self):\n"
            "        self.samples.append(2)\n"
        )
        assert run(clean) == []

    def test_disjoint_state_passes(self):
        clean = (
            "import threading\n"
            "class T:\n"
            "    def pump(self):\n"
            "        self.thread_side.append(1)\n"
            "    async def flush(self):\n"
            "        self.loop_side.append(2)\n"
            "    def launch(self):\n"
            "        threading.Thread(target=self.pump).start()\n"
        )
        assert run(clean) == []


# ----------------------------------------------------------------------
# RAP009 — swallowed exceptions around awaits
# ----------------------------------------------------------------------
class TestRap009:
    def test_discarding_tuple_handler_flagged(self):
        diags = run(
            "import asyncio\n"
            "async def probe(fetch):\n"
            "    try:\n"
            "        await fetch()\n"
            "    except (OSError, asyncio.TimeoutError):\n"
            "        return None\n"
        )
        assert codes(diags) == ["RAP009"]
        assert "OSError" in diags[0].message

    def test_bound_and_read_error_passes(self):
        clean = (
            "import asyncio\n"
            "async def probe(fetch, log):\n"
            "    try:\n"
            "        await fetch()\n"
            "    except (OSError, asyncio.TimeoutError) as error:\n"
            "        log(type(error).__name__)\n"
        )
        assert run(clean) == []

    def test_single_type_handler_passes(self):
        clean = (
            "import asyncio\n"
            "async def probe(fetch):\n"
            "    try:\n"
            "        await fetch()\n"
            "    except asyncio.TimeoutError:\n"
            "        return None\n"
        )
        assert run(clean) == []

    def test_reraising_handler_passes(self):
        clean = (
            "import asyncio\n"
            "async def probe(fetch):\n"
            "    try:\n"
            "        await fetch()\n"
            "    except (OSError, asyncio.TimeoutError):\n"
            "        raise\n"
        )
        assert run(clean) == []

    def test_no_await_in_body_passes(self):
        clean = (
            "def probe(fetch):\n"
            "    try:\n"
            "        fetch()\n"
            "    except (OSError, ValueError):\n"
            "        return None\n"
        )
        assert run(clean) == []

    def test_discarded_gather_flagged(self):
        diags = run(
            "import asyncio\n"
            "async def drain(tasks):\n"
            "    await asyncio.gather(*tasks, return_exceptions=True)\n"
        )
        assert codes(diags) == ["RAP009"]
        assert "discarded" in diags[0].message

    def test_run_until_complete_gather_flagged(self):
        diags = run(
            "import asyncio\n"
            "def drain(loop, tasks):\n"
            "    loop.run_until_complete(\n"
            "        asyncio.gather(*tasks, return_exceptions=True)\n"
            "    )\n"
        )
        assert codes(diags) == ["RAP009"]

    def test_inspected_gather_passes(self):
        clean = (
            "import asyncio\n"
            "async def drain(tasks, log):\n"
            "    results = await asyncio.gather(\n"
            "        *tasks, return_exceptions=True\n"
            "    )\n"
            "    for result in results:\n"
            "        if isinstance(result, Exception):\n"
            "            log(result)\n"
        )
        assert run(clean) == []

    def test_plain_gather_passes(self):
        # Without return_exceptions=True failures propagate normally.
        clean = (
            "import asyncio\n"
            "async def drain(tasks):\n"
            "    await asyncio.gather(*tasks)\n"
        )
        assert run(clean) == []


# ----------------------------------------------------------------------
# RAP010 — unordered set iteration on result paths
# ----------------------------------------------------------------------
class TestRap010:
    def test_set_name_iteration_flagged_in_serve(self):
        diags = run(
            "def reply(sites):\n"
            "    chosen = set(sites)\n"
            "    return [s for s in chosen]\n",
            "serve/reply.py",
        )
        assert codes(diags) == ["RAP010"]
        assert "'chosen'" in diags[0].message

    def test_set_literal_iteration_flagged_in_core(self):
        diags = run(
            "def f():\n"
            "    out = []\n"
            "    for item in {'b', 'a'}:\n"
            "        out.append(item)\n"
            "    return out\n",
            "core/kernel.py",
        )
        assert codes(diags) == ["RAP010"]

    def test_sorted_iteration_passes(self):
        clean = (
            "def reply(sites):\n"
            "    chosen = set(sites)\n"
            "    return [s for s in sorted(chosen)]\n"
        )
        assert run(clean, "serve/reply.py") == []

    def test_membership_test_passes(self):
        clean = (
            "def hit(site, placed):\n"
            "    members = set(placed)\n"
            "    return site in members\n"
        )
        assert run(clean, "serve/reply.py") == []

    def test_outside_scoped_paths_passes(self):
        source = (
            "def f(sites):\n"
            "    pool = set(sites)\n"
            "    return [s for s in pool]\n"
        )
        assert run(source, "cli.py") == []
        assert codes(run(source, "serve/x.py")) == ["RAP010"]

    def test_dict_iteration_passes(self):
        # Dicts preserve insertion order; only sets are nondeterministic.
        clean = (
            "def f(pairs):\n"
            "    table = dict(pairs)\n"
            "    return [k for k in table]\n"
        )
        assert run(clean, "serve/reply.py") == []

    def test_paths_configurable(self):
        source = (
            "def f(sites):\n"
            "    pool = set(sites)\n"
            "    return [s for s in pool]\n"
        )
        rescoped = replace(
            LintConfig.default(), ordered_iteration_paths=("batch/",)
        )
        assert codes(run(source, "batch/x.py", rescoped)) == ["RAP010"]
        assert run(source, "serve/x.py", rescoped) == []


# ----------------------------------------------------------------------
# --select ranges and the JSON report
# ----------------------------------------------------------------------
class TestSelectRanges:
    def test_range_expands_inclusively(self):
        assert expand_code_ranges(["RAP006-RAP008"]) == (
            "RAP006",
            "RAP007",
            "RAP008",
        )

    def test_plain_codes_pass_through(self):
        assert expand_code_ranges(["RAP001", "RAP003"]) == (
            "RAP001",
            "RAP003",
        )

    def test_mixed_entries(self):
        assert expand_code_ranges(["RAP001", "RAP009-RAP010"]) == (
            "RAP001",
            "RAP009",
            "RAP010",
        )

    def test_inverted_range_rejected(self):
        with pytest.raises(LintConfigError):
            expand_code_ranges(["RAP010-RAP006"])

    def test_with_select_accepts_ranges(self):
        source = "import time\nasync def f():\n    time.sleep(1)\n"
        async_only = LintConfig.default().with_select(["RAP006-RAP010"])
        assert codes(run(source, config=async_only)) == ["RAP006"]
        # The same config must not run rules outside the range.
        assert run("import random\nx = random.random()\n",
                   config=async_only) == []


class TestJsonReport:
    def test_findings_and_tallies(self):
        diags = run(
            "import time\n"
            "async def f():\n"
            "    time.sleep(1)\n"
            "    time.sleep(2)\n"
        )
        document = json.loads(render_json(diags))
        assert document["count"] == 2
        assert document["by_code"] == {"RAP006": 2}
        first = document["findings"][0]
        assert first["code"] == "RAP006"
        assert first["line"] == 3
        assert "time.sleep" in first["message"]

    def test_empty_report(self):
        document = json.loads(render_json([]))
        assert document == {"by_code": {}, "count": 0, "findings": []}


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
