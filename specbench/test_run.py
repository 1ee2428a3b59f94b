"""Tests of the benchmark's correctness gate.

Run from the repository root:

    python3 -m unittest discover -s specbench -p 'test_*.py'

The first group checks the CSV comparison alone. The last test runs the
whole command (it builds the simulator if needed) with a mismatch injected
into a copy of the reference output, and expects a nonzero exit code.
"""

import io
import json
import os
import sys
import unittest
from contextlib import redirect_stdout
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

HEADER = ("workload,policy,cycles,committed,ipc,flushes,flushed_instrs,"
          "wasted_units,l2_hit_mean,wall_s\n")
REFERENCE = [
    "4W3,ICOUNT,20000,22593,1.12965,0,0,0,100.233",
    "4W3,FLUSH-S30,20000,26108,1.3054,239,42492,26579.6,91.8537",
    "4W3,MFLUSH,20000,24815,1.24075,206,36244,23226.4,96.0549",
]


def csv(rows):
    return HEADER + "".join(f"{r},0.{i + 1}\n" for i, r in enumerate(rows))


class CountFailedTest(unittest.TestCase):
    def test_identical_rows_pass_whatever_the_wall_time(self):
        self.assertEqual(run.count_failed(REFERENCE, csv(REFERENCE), 0), 0)

    def test_changed_cell_fails_that_job(self):
        bad = list(REFERENCE)
        bad[1] = bad[1].replace("1.3054", "1.3055")
        self.assertEqual(run.count_failed(REFERENCE, csv(bad), 0), 1)

    def test_missing_and_extra_rows_fail(self):
        self.assertEqual(run.count_failed(REFERENCE, csv(REFERENCE[:2]), 0), 1)
        self.assertEqual(
            run.count_failed(REFERENCE, csv(REFERENCE + REFERENCE[:1]), 0), 1)

    def test_nonzero_exit_fails_every_job(self):
        self.assertEqual(run.count_failed(REFERENCE, csv(REFERENCE), 1), 3)

    def test_malformed_output_fails_every_job(self):
        self.assertEqual(run.count_failed(REFERENCE, "", 0), 3)
        self.assertEqual(run.count_failed(REFERENCE, "garbage\n", 0), 3)
        broken = csv(REFERENCE).replace(",0.2\n", ",x\n")
        self.assertEqual(run.count_failed(REFERENCE, broken, 0), 3)


class CommandTest(unittest.TestCase):
    def test_injected_reference_mismatch_fails_the_command(self):
        real_probe = run.probe

        def probe_with_bad_reference(*args):
            code, out = real_probe(*args)
            if args[0] == "reference":
                path = args[2]
                with open(path) as f:
                    lines = f.read().splitlines()
                head, _, last = lines[1].rpartition(",")
                lines[1] = f"{head},{last}0"  # one cell of one row differs
                with open(path, "w") as f:
                    f.write("\n".join(lines) + "\n")
            return code, out

        stdout = io.StringIO()
        with mock.patch.object(run, "probe", probe_with_bad_reference), \
                redirect_stdout(stdout):
            code = run.main(["--workload", "fullrun-fixed", "--seconds", "1"])
        self.assertNotEqual(code, 0)
        result = json.loads(stdout.getvalue().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()
