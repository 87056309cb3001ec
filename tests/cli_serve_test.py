#!/usr/bin/env python3
"""End-to-end checks of `gpmv_cli serve`'s closing report and flag bounds,
and of the flag table every subcommand is checked against.

    python3 tests/cli_serve_test.py <path/to/gpmv_cli>

Generates a small random graph and two views in a temporary directory, then
checks that:
  * the `N queries in Xs` headline counts the served queries under
    --no-metrics, where the engine records none of its own counters, and
    the summary table is still printed;
  * --cache-mb / --result-cache-mb values whose MiB-to-byte shift would
    wrap are rejected with exit status 2 and an error on stderr, while the
    largest budget that fits is accepted;
  * a normal run ends with the registry summary table, `engine.queries`
    included;
  * a misspelt flag (`answer ... --minimun`, `match ... --duall`) and a flag
    missing its value (`stats <graph> --json`) exit with status 2 and the
    usage text instead of running without them;
  * the retired sharding flags of `serve` (the shard count and the hash
    partition switch) are usage errors too, so an old invocation fails
    loudly instead of silently running unsharded.

Registered with ctest (label `fast`) by the top-level CMakeLists.txt.
"""

import os
import re
import subprocess
import sys
import tempfile
import unittest

CLI = None  # set from argv in main

# The two views of the CI schema smoke; each also serves as a query.
VIEWS = ("view v1\nnode a label=L4\nnode b label=L8\nedge a b bound=2\n"
         "view v2\nnode a label=L4\nnode b label=L4\nedge a b\n")
NUM_QUERIES = 2
# A single pattern contained in v2.
PATTERN = "node a label=L4\nnode b label=L4\nedge a b\n"
# Budgets are MiB shifted left by 20 into a 64-bit byte count: 2^44 MiB is
# the first value that wraps.
LARGEST_BUDGET_MB = str((1 << 44) - 1)
WRAPPING_BUDGET_MB = str(1 << 44)


class CliFixture(unittest.TestCase):
    """A generated graph, the two views and a pattern in a temporary dir."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.graph = os.path.join(cls.tmp.name, "g.graph")
        cls.views = os.path.join(cls.tmp.name, "v.views")
        cls.pattern = os.path.join(cls.tmp.name, "q.pattern")
        subprocess.run([CLI, "gen", "random", "2000", "7", cls.graph],
                       check=True, stdout=subprocess.DEVNULL)
        with open(cls.views, "w") as f:
            f.write(VIEWS)
        with open(cls.pattern, "w") as f:
            f.write(PATTERN)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()


class ServeReportTest(CliFixture):

    def serve(self, *flags):
        return subprocess.run(
            [CLI, "serve", self.graph, self.views, "--views", self.views,
             "--warm", *flags],
            capture_output=True, text=True, timeout=60)

    def test_no_metrics_headline_counts_served_queries(self):
        r = self.serve("--no-metrics")
        self.assertEqual(r.returncode, 0, r.stderr)
        m = re.search(r"^(\d+) queries in \S+ \(\d+ q/s\), (\d+) failed$",
                      r.stdout, re.M)
        self.assertIsNotNone(m, r.stdout)
        self.assertEqual(int(m.group(1)), NUM_QUERIES, r.stdout)
        self.assertEqual(int(m.group(2)), 0, r.stdout)
        self.assertIn("--- metrics summary ---", r.stdout)

    def test_wrapping_budgets_are_rejected(self):
        for flag in ("--cache-mb", "--result-cache-mb"):
            with self.subTest(flag=flag):
                r = self.serve(flag, WRAPPING_BUDGET_MB)
                self.assertEqual(r.returncode, 2, r.stdout)
                self.assertIn("error: " + flag, r.stderr)
                # The largest budget that fits is a valid (huge) budget: the
                # warmed views stay cached and every query runs warm.
                r = self.serve(flag, LARGEST_BUDGET_MB)
                self.assertEqual(r.returncode, 0, r.stderr)
                self.assertEqual(
                    len(re.findall(r"^v\d .* warm ", r.stdout, re.M)),
                    NUM_QUERIES, r.stdout)

    def test_summary_table_lists_engine_queries(self):
        r = self.serve()
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("--- metrics summary ---", r.stdout)
        self.assertRegex(r.stdout,
                         r"(?m)^\s+engine\.queries\s+%d$" % NUM_QUERIES)


class FlagTableTest(CliFixture):
    """Flags outside a subcommand's table are usage errors (exit 2)."""

    def run_cli(self, *args):
        return subprocess.run([CLI, *args], capture_output=True, text=True,
                              timeout=60)

    def assert_usage_error(self, r, message):
        self.assertEqual(r.returncode, 2, r.stdout)
        self.assertIn(message, r.stderr)
        self.assertIn("usage:", r.stderr)

    def test_misspelt_answer_flag_is_rejected(self):
        r = self.run_cli("answer", self.graph, self.pattern, self.views,
                         "--minimun")
        self.assert_usage_error(r, "unknown argument '--minimun'")
        r = self.run_cli("answer", self.graph, self.pattern, self.views,
                         "--minimum", "--check")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("IDENTICAL", r.stdout)

    def test_misspelt_match_flag_is_rejected(self):
        r = self.run_cli("match", self.graph, self.pattern, "--duall")
        self.assert_usage_error(r, "unknown argument '--duall'")
        r = self.run_cli("match", self.graph, self.pattern, "--dual")
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_flag_missing_its_value_is_rejected(self):
        r = self.run_cli("stats", self.graph, "--json")
        self.assert_usage_error(r, "--json requires a value")

    def test_retired_sharding_flags_are_rejected(self):
        for prefix, value in (("", ["2"]), ("hash-", [])):
            flag = f"--{prefix}shards"
            with self.subTest(flag=flag):
                r = self.run_cli("serve", self.graph, self.views, flag, *value)
                self.assert_usage_error(r, f"unknown argument '{flag}'")


def main():
    global CLI
    if len(sys.argv) != 2:
        sys.exit("usage: cli_serve_test.py <path/to/gpmv_cli>")
    CLI = sys.argv[1]
    unittest.main(argv=sys.argv[:1], verbosity=2)


if __name__ == "__main__":
    main()
