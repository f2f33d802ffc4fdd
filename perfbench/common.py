"""Episodes, the timed window, and the end-to-end metrics.

A run repeats one fixed **episode** of its workload — build the
cluster, run the per-round loop for a fixed number of rounds, drain to
convergence, check the outputs, measure recovery — until the rounds it
has timed add up to ``--seconds`` (and at least :data:`MIN_EPISODES`
times).  Every episode of a run uses the same seed, so on the
simulator each episode does exactly the same work: its deterministic
counters must repeat, and a run whose episodes disagree fails.

Timings are pooled over all episodes of the run.  Per-round times
cover only the round loop; set-up, the correctness checks and the
recovery measurement run outside it.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from perfbench.layers import PER_LAYER
from perfbench.spans import Tracer
from perfbench.stats import peak_rss_mb, percentile

__all__ = [
    "END_TO_END",
    "MIN_EPISODES",
    "Episode",
    "LoopClock",
    "RunResult",
    "run_episodes",
    "settle_visible",
]

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rounds_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("adopt_us_per_item", "us"),
    ("bytes_per_update", "B"),
    ("put_ack_ms_p50", "ms"),
    ("put_ack_ms_p90", "ms"),
    ("get_ms_p50", "ms"),
    ("get_ms_p90", "ms"),
    ("visible_all_ms_p50", "ms"),
    ("visible_all_ms_p90", "ms"),
    ("sessions_per_s", "1/s"),
    ("recover_ms_p50", "ms"),
)

#: Episodes every run makes at least: three set-ups for the median
#: ``setup_s``, and enough updates and recoveries for the percentiles.
MIN_EPISODES = 3


class LoopClock:
    """Time spent inside timed rounds only.

    ``now()`` reads the clock mid-round; instrumentation run between
    rounds (visibility checks) is outside every round and never counts.
    """

    def __init__(self) -> None:
        self.total = 0.0
        self._t0 = 0.0

    def start_round(self) -> None:
        self._t0 = perf_counter()

    def now(self) -> float:
        return self.at(perf_counter())

    def at(self, instant: float) -> float:
        """The loop-clock reading of a ``perf_counter()`` instant taken
        during the current round."""
        return self.total + (instant - self._t0)

    def end_round(self) -> float:
        elapsed = perf_counter() - self._t0
        self.total += elapsed
        return elapsed


@dataclass
class Episode:
    """What one episode measured and checked."""

    setup_s: float = 0.0
    round_s: list[float] = field(default_factory=list)
    put_ack_s: list[float] = field(default_factory=list)
    get_s: list[float] = field(default_factory=list)
    visible_s: list[float] = field(default_factory=list)
    recover_s: list[float] = field(default_factory=list)
    sessions: int = 0
    items_adopted: int = 0
    bytes_sent: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Counters that must repeat exactly across episodes of one seed
    #: (``None`` where the workload is not deterministic).
    counters: dict[str, int] | None = None
    #: Per-layer values, for a traced episode.
    layer: dict[str, float] | None = None
    traced: bool = False
    #: Errors asyncio logged while the episode's cluster shut down.
    teardown_errors: int = 0

    @property
    def loop_s(self) -> float:
        return sum(self.round_s)

    def check(self, ok: bool, what: str) -> None:
        """Count one correctness check; record it when it fails."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(what)


def settle_visible(
    pending: list[tuple[int, int, float]],
    nodes: list,
    now: float,
    visible_s: list[float],
) -> list[tuple[int, int, float]]:
    """Record, as visible at ``now``, every pending ``(origin, seqno,
    issued)`` update that all replicas reflect — their
    ``dbvv[origin]`` reached ``seqno`` — and return the rest.  ``nodes``
    are anything with a ``.node`` holding an ``EpidemicNode``."""
    floor: dict[int, int] = {}
    still: list[tuple[int, int, float]] = []
    for origin, seqno, issued in pending:
        lowest = floor.get(origin)
        if lowest is None:
            lowest = floor[origin] = min(node.node.dbvv[origin] for node in nodes)
        if lowest >= seqno:
            visible_s.append(now - issued)
        else:
            still.append((origin, seqno, issued))
    return still


@dataclass
class RunResult:
    """Everything one command prints."""

    episodes: list[Episode]
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failed: int
    failures: list[str]
    notes: list[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0


EpisodeFn = Callable[[int, "Tracer | None"], Episode]


def run_episodes(
    episode: EpisodeFn,
    seed: int,
    seconds: float,
    trace: bool,
) -> RunResult:
    """Repeat ``episode`` until ``seconds`` of rounds are timed.

    A traced run alternates untraced and traced episodes (untraced
    first): the untraced ones are the baseline the tracing overhead is
    measured against, the traced ones give the per-layer metrics.
    """
    tracer = Tracer() if trace else None
    episodes: list[Episode] = []
    timed = 0.0
    while len(episodes) < MIN_EPISODES or timed < seconds:
        traced = tracer is not None and len(episodes) % 2 == 1
        # The previous episode's cluster is garbage held in reference
        # cycles; collect it now so no episode pays for an earlier one.
        gc.collect()
        result = episode(seed, tracer if traced else None)
        result.traced = traced
        episodes.append(result)
        timed += result.loop_s
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    failures = [what for ep in episodes for what in ep.failures]
    reference = episodes[0].counters
    for index, ep in enumerate(episodes[1:], start=1):
        attempted += 1
        if ep.counters != reference:
            failed += 1
            failures.append(
                f"episode {index} counters {ep.counters} differ from "
                f"episode 0 counters {reference}"
            )
    notes: list[str] = []
    teardown = sum(ep.teardown_errors for ep in episodes)
    if teardown:
        notes.append(
            f"asyncio logged {teardown} error(s) while clusters shut down: "
            "NetNode._serve_peer handlers still running after stop() are "
            "cancelled at loop exit (a known node defect; not counted as a "
            "failure)"
        )
    if reference is not None:
        notes.append(
            f"deterministic counters repeated exactly across {len(episodes)} "
            f"episodes: {reference}"
        )
    if trace:
        metrics, units = _per_layer(episodes)
        plain, traced = (
            _mean_round_ms([ep for ep in episodes if ep.traced is flag])
            for flag in (False, True)
        )
        notes.append(
            f"tracing overhead: mean round {plain:.4g} ms untraced, "
            f"{traced:.4g} ms traced (+{traced / plain - 1:.1%})"
        )
    else:
        metrics, units = _end_to_end(episodes)
    return RunResult(episodes, metrics, units, attempted, failed, failures, notes)


def _mean_round_ms(episodes: list[Episode]) -> float:
    rounds = sum(len(ep.round_s) for ep in episodes)
    return sum(ep.loop_s for ep in episodes) * 1e3 / rounds


def _pooled(episodes: list[Episode], name: str) -> list[float]:
    return [value for ep in episodes for value in getattr(ep, name)]


def _end_to_end(episodes: list[Episode]) -> tuple[dict[str, float], dict[str, str]]:
    # Rates are medians of per-episode rates: a burst of interference
    # that slows one episode moves them no more than it moves a p50.
    def per_episode(rate: Callable[[Episode], float]) -> float:
        return statistics.median(rate(ep) for ep in episodes)

    rounds = _pooled(episodes, "round_s")
    put_ack = _pooled(episodes, "put_ack_s")
    gets = _pooled(episodes, "get_s")
    visible = _pooled(episodes, "visible_s")
    metrics = {
        "setup_s": statistics.median(ep.setup_s for ep in episodes),
        "peak_rss_mb": peak_rss_mb(),
        "rounds_per_s": per_episode(lambda ep: len(ep.round_s) / ep.loop_s),
        "round_ms_p50": percentile(rounds, 50) * 1e3,
        "round_ms_p90": percentile(rounds, 90) * 1e3,
        "adopt_us_per_item": per_episode(
            lambda ep: ep.loop_s * 1e6 / ep.items_adopted
        ),
        "bytes_per_update": sum(ep.bytes_sent for ep in episodes) / len(put_ack),
        "put_ack_ms_p50": percentile(put_ack, 50) * 1e3,
        "put_ack_ms_p90": percentile(put_ack, 90) * 1e3,
        "get_ms_p50": percentile(gets, 50) * 1e3,
        "get_ms_p90": percentile(gets, 90) * 1e3,
        "visible_all_ms_p50": percentile(visible, 50) * 1e3,
        "visible_all_ms_p90": percentile(visible, 90) * 1e3,
        "sessions_per_s": per_episode(lambda ep: ep.sessions / ep.loop_s),
        "recover_ms_p50": percentile(_pooled(episodes, "recover_s"), 50) * 1e3,
    }
    return metrics, dict(END_TO_END)


def _per_layer(episodes: list[Episode]) -> tuple[dict[str, float], dict[str, str]]:
    """Medians over the traced episodes; the overhead compares their
    mean round time with the untraced episodes' of the same run."""
    traced = [ep for ep in episodes if ep.traced]
    plain = [ep for ep in episodes if not ep.traced]
    overhead = _mean_round_ms(traced) / _mean_round_ms(plain) - 1
    values = {
        name: overhead if name == "trace.overhead_share"
        else statistics.median(ep.layer[name] for ep in traced if ep.layer)
        for name, _unit in PER_LAYER
    }
    return values, dict(PER_LAYER)
