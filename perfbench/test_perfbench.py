"""Tests for the harness's statistics helpers and output checkers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import unittest

import checks
import stats

YIELD_REPORT = """\
design: DTMB(2,6) | primaries 600 | spares 224 | RR 0.3733
survival p        : 0.9900
raw yield         : 0.0023 (95% CI [0.0021, 0.0025], 457/200000 trials)
reconfigured yield: 0.9994 (95% CI [0.9993, 0.9995], 199876/200000 trials)
effective yield   : 0.7277
"""
REF_99 = [0.999368, 1.4e-5]

SWEEP = """\
p,yield,ci_lo,ci_hi
0.9900,0.9994,0.9993,0.9995
1.0000,1.0000,1.0000,1.0000
"""
SWEEP_REFS = {"0.9900": REF_99, "1.0000": [1.0, 1e-6]}

STRATIFIED = """\
design: DTMB(2,6) | primaries 600 | spares 224
survival p        : 0.9990
reconfigured yield: 0.999999  (95% CI [0.999999, 1.000000], 2000000 trials over 9 strata)
  std error 1.142e-7 | truncated mass 2.2e-7 | effective samples 57005952 (28.5x speed-up)
"""
REF_999 = [0.9999993, 2e-7]

ASSAY = """\
assay: ivd-panel (4 measurements) | chip: DTMB(2,6) IVD case study | 252 primaries + 91 spares | 108 assay cells
timing budget     : 273.0s protocol makespan
survival p        : 0.9500
raw yield         : 0.0040  (95% CI [0.0023, 0.0070], 3000 trials)
reconfigured yield: 0.9823  (95% CI [0.9770, 0.9865], 3000 trials)
operational yield : 0.9793  (95% CI [0.9736, 0.9838], 3000 trials)
"""
ASSAY_REF = {"reconfigured": [0.9817, 3e-4], "operational": [0.9786, 3e-4]}

CAMPAIGN = """\
campaign edge-column-wipeout | chip DTMB(2,6) IVD case study | assay ivd-panel
seed 1 | p 0.99 | trials 2000 | steps 4

marker step=0 k=1 action=calm injected=0 cumulative=0 ok

step,action,faults,reconf,op,raw,reconfigured,operational
0,calm,0,yes,yes,0.351500,1.000000,1.000000
1,salvo:24,12,yes,yes,0.000000,0.981500,0.981500
2,wipe-column:0,29,no,no,0.000000,0.000000,0.000000
3,wipe-column:1,47,no,no,0.000000,0.000000,0.000000
"""
FINAL = {"reconf": "no", "op": "no"}


def search_json(frontier):
    return json.dumps({"trials_used": 1234, "frontier": [
        {"spec": spec, "overhead": overhead, "yield": y} for spec, overhead, y in frontier
    ]})


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_percentile_interpolates_between_ranks(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertAlmostEqual(stats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 99), 99.01)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_samples_beyond_p99(self):
        self.assertEqual(stats.samples_beyond(1001, 99), 10)
        self.assertEqual(stats.samples_beyond(100, 99), 1)

    def test_spread_uses_statistics_quartiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 12.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / statistics.median(values))
        self.assertEqual(stats.spread([5.0] * 10), 0.0)


class ChecksTest(unittest.TestCase):
    def test_estimate_line_parsing(self):
        self.assertEqual(checks.estimate("raw yield : 0.0023 (95% CI [0.0021, 0.0025], 457/200000 trials)"),
                         (0.0023, 0.0021, 0.0025))
        self.assertEqual(checks.estimate("raw yield : 0.0024"), (0.0024, None, None))

    def test_yield_report_passes_and_counts_trials(self):
        problems, samples = checks.check_yield_report(YIELD_REPORT, 0.99, 600, 200_000, REF_99)
        self.assertEqual(problems, [])
        self.assertEqual(samples, 200_000)

    def test_wrong_reconfigured_yield_fails(self):
        wrong = YIELD_REPORT.replace("0.9994 (95% CI [0.9993, 0.9995]", "0.9950 (95% CI [0.9947, 0.9953]")
        problems, _ = checks.check_yield_report(wrong, 0.99, 600, 200_000, REF_99)
        self.assertEqual(len(problems), 1)
        self.assertIn("reconfigured yield", problems[0])

    def test_wrong_raw_yield_fails(self):
        wrong = YIELD_REPORT.replace("0.0023 (95% CI", "0.0100 (95% CI")
        problems, _ = checks.check_yield_report(wrong, 0.99, 600, 200_000, REF_99)
        self.assertTrue(any("closed form" in p for p in problems))

    def test_binomial_tail(self):
        self.assertEqual(checks.binomial_tail(5, 10, 0.5), 1.0)
        self.assertAlmostEqual(checks.binomial_tail(0, 10, 0.5), 0.5 ** 10)
        self.assertAlmostEqual(checks.binomial_tail(9, 10, 0.5), 11 * 0.5 ** 10)
        # 10 successes in 600 trials at q = 0.0039 is unusual, not impossible.
        self.assertGreater(checks.binomial_tail(10, 600, 0.0039), checks.TAIL_ALPHA)
        self.assertLess(checks.binomial_tail(2000, 200_000, 0.0024), checks.TAIL_ALPHA)

    def test_raw_closed_form_printed_without_interval_passes(self):
        exact = YIELD_REPORT.replace("0.0023 (95% CI [0.0021, 0.0025], 457/200000 trials)", "0.0024")
        self.assertEqual(checks.check_yield_report(exact, 0.99, 600, 200_000, REF_99)[0], [])

    def test_sweep(self):
        self.assertEqual(checks.check_sweep(SWEEP, [0.99, 1.0], 200_000, SWEEP_REFS), ([], 400_000))
        wrong = SWEEP.replace("0.9900,0.9994,0.9993,0.9995", "0.9900,0.9800,0.9794,0.9806")
        self.assertEqual(len(checks.check_sweep(wrong, [0.99, 1.0], 200_000, SWEEP_REFS)[0]), 1)
        short = "\n".join(SWEEP.splitlines()[:2])
        self.assertTrue(checks.check_sweep(short, [0.99, 1.0], 200_000, SWEEP_REFS)[0])

    def test_stratified(self):
        problems, samples = checks.check_stratified(STRATIFIED, REF_999)
        self.assertEqual(problems, [])
        self.assertEqual(samples, 57005952)
        wrong = STRATIFIED.replace("0.999999  (95% CI [0.999999, 1.000000]", "0.999000  (95% CI [0.998990, 0.999010]")
        self.assertEqual(len(checks.check_stratified(wrong, REF_999)[0]), 1)

    def test_search_frontier(self):
        good = search_json([("a", 0.1, 0.99), ("b", 0.2, 0.999), ("c", 0.3, 0.9999995), ("d", 0.4, 1.0)])
        self.assertEqual(checks.check_search(good), ([], 1234))
        dominated = search_json([("a", 0.1, 0.99), ("b", 0.2, 0.95)])
        self.assertEqual(checks.check_search(dominated)[0], ["search frontier row b is dominated"])
        self.assertEqual(checks.check_search(search_json([]))[0], ["search frontier is empty"])

    def test_assay(self):
        self.assertEqual(checks.check_assay(ASSAY, 0.95, 3000, ASSAY_REF), ([], 3000))
        wrong = ASSAY.replace("operational yield : 0.9793  (95% CI [0.9736, 0.9838]",
                              "operational yield : 0.9000  (95% CI [0.8890, 0.9100]")
        self.assertEqual(len(checks.check_assay(wrong, 0.95, 3000, ASSAY_REF)[0]), 1)
        inverted = ASSAY.replace("operational yield : 0.9793", "operational yield : 0.9830")
        self.assertIn("operational yield exceeds reconfigured yield",
                      checks.check_assay(inverted, 0.95, 3000, ASSAY_REF)[0])

    def test_campaign(self):
        self.assertEqual(checks.check_campaign(CAMPAIGN, 2000, FINAL), ([], 8000))
        wrong = CAMPAIGN.replace("3,wipe-column:1,47,no,no", "3,wipe-column:1,47,yes,no")
        self.assertEqual(checks.check_campaign(wrong, 2000, FINAL)[0],
                         ["campaign final reconf is 'yes', expected 'no'"])
        disordered = CAMPAIGN.replace("0.981500,0.981500", "0.981500,0.990000")
        self.assertEqual(len(checks.check_campaign(disordered, 2000, FINAL)[0]), 1)

    def test_reply(self):
        seen = {}
        self.assertEqual(checks.check_reply(200, ("body", '{"a": 1}'), seen), [])
        self.assertEqual(checks.check_reply(200, ("body", '{"a": 1}'), seen), [])
        self.assertTrue(checks.check_reply(200, ("body", '{"a": 2}'), seen))
        self.assertTrue(checks.check_reply(500, ("other", '{"a": 1}'), seen))
        self.assertTrue(checks.check_reply(200, ("other", "not json"), seen))


if __name__ == "__main__":
    unittest.main()
