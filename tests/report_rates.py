"""Label lookups on a `DetectionRateReport`, for the tests' assertions.

The program reads the report's count arrays by position; these read one
cell by its topology id, criterion and signal names, as in `CRITERIA` and
`SIGNALS` order.
"""
from microtopo.detector import CRITERIA, SIGNALS
from microtopo.scenario import DetectionRateReport


def _at(report: DetectionRateReport, true: str, criterion: str,
        signal: str) -> tuple[int, int, int]:
    return (report.topology_ids.index(true), CRITERIA.index(criterion),
            SIGNALS.index(signal))


def n_trials(report: DetectionRateReport, true: str, criterion: str, signal: str) -> int:
    return int(report.counts()[2][_at(report, true, criterion, signal)])


def correct_rate(report: DetectionRateReport, true: str, criterion: str,
                 signal: str) -> float:
    correct, _, n = (int(a[_at(report, true, criterion, signal)]) for a in report.counts())
    return correct / max(1, n)


def overall_correct_rate(report: DetectionRateReport, criterion: str, signal: str) -> float:
    at = (slice(None), CRITERIA.index(criterion), SIGNALS.index(signal))
    correct, _, n = (int(a[at].sum()) for a in report.counts())
    return correct / max(1, n)
