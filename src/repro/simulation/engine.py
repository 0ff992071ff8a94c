"""Discrete-event steady-state stream simulator.

Given a MinCOST problem and an allocation, the :class:`StreamSimulator` replays
the execution of the data-set stream on the rented instances:

* data sets arrive according to the scenario's
  :class:`~repro.simulation.scenarios.ArrivalProcess` — by default the paper's
  deterministic stream at the target rate ``rho`` (arrival *n* at exactly
  ``n / rho``, computed by index so no floating-point drift accumulates over
  long horizons) — and are routed to recipes proportionally to the
  allocation's throughput split;
* each task of a data set becomes ready when its recipe predecessors have
  completed, and is then dispatched to the least-loaded *available* rented
  instance of its type, which serves tasks FIFO at rate ``r_q`` (scaled by the
  scenario's per-type slowdown factors; instances inside a scenario failure
  window take no new work until the window ends);
* the simulation stops at a configurable horizon and reports the achieved
  output throughput, latencies, per-type utilisation and the peak reorder
  buffer occupancy (see :class:`~repro.simulation.metrics.SimulationReport`);
  the reports of shorter horizons (``prefixes``) come out of the same run.

Two engine implementations share this model.  ``engine="fast"`` (the default)
is an inlined hot loop: raw ``(time, seq, kind, arg)`` heap tuples, per-recipe
precomputed task tables (work, successor list, dispatch heap of the task's
type), data sets as plain lists, a pure-Python stride router, and per-type
heap-indexed least-loaded selection.  ``engine="reference"`` is the original
object-per-concept loop (``EventQueue`` /
:class:`~repro.simulation.stream.DataSetInstance` /
:class:`~repro.simulation.stream.RecipeRouter` / the linear least-loaded
scan).  Both push events in the exact same order, so they produce identical
``(time, sequence)`` event streams and byte-identical reports — the test suite
asserts this across randomized scenarios, which is what lets validation
records stay byte-identical to pre-optimization checkpoints.

This substrate is not part of the paper's evaluation (which only compares
allocation costs); it is used to *validate* that the allocations produced by
the solvers and heuristics actually sustain the target throughput — including
under the stochastic scenarios of :mod:`repro.simulation.scenarios` that the
cost model makes no promise about.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import Iterable

from ..core.allocation import Allocation
from ..core.exceptions import SimulationError
from ..core.graph import RecipeGraph
from ..core.problem import MinCostProblem
from ..utils.rng import spawn_generators
from .events import EventKind, EventQueue
from .metrics import SimulationReport
from .processor import PendingTask, ProcessorInstance, ProcessorPool
from .scenarios import DEFAULT_SCENARIO, ScenarioSpec
from .stream import DataSetInstance, RecipeRouter, ReorderBuffer

__all__ = ["StreamSimulator"]

# raw event-kind integers for the fast loop (EventKind members, as plain ints)
_ARRIVAL = int(EventKind.ARRIVAL)
_TASK_COMPLETE = int(EventKind.TASK_COMPLETE)
_RESUME = int(EventKind.RESUME)


def _recipe_mix(assigned: list[int]) -> tuple[float, ...]:
    """The fast router's share of data sets per recipe (reference: ``RecipeRouter.mix``)."""
    total = sum(assigned)
    if not total:
        return tuple(0.0 for _ in assigned)
    return tuple(count / total for count in assigned)


class StreamSimulator:
    """Simulate an allocation processing a stream of data sets.

    Parameters
    ----------
    problem:
        The MinCOST instance (provides the recipes, the platform and the
        target throughput used as the arrival rate).
    allocation:
        The allocation to replay (split + machine counts).
    arrival_rate:
        Mean data-set arrival rate; defaults to the problem's target
        throughput.
    warmup_fraction:
        Fraction of the horizon treated as warm-up: only data sets *arriving*
        after it count towards ``achieved_throughput``.
    scenario:
        Injection scenario (arrival process, per-type slowdowns, failure
        windows); defaults to the paper's assumptions
        (:data:`~repro.simulation.scenarios.DEFAULT_SCENARIO`).
    seed:
        Seed for the scenario's stochastic draws (arrival gaps, which
        instances fail).  The default scenario consumes no randomness, so the
        seed only matters for stochastic scenarios.
    engine:
        ``"fast"`` (default) runs the inlined hot loop; ``"reference"`` runs
        the original loop.  Both produce byte-identical reports — the
        reference engine exists as the independent implementation the
        equivalence tests compare against.
    """

    def __init__(
        self,
        problem: MinCostProblem,
        allocation: Allocation,
        *,
        arrival_rate: float | None = None,
        warmup_fraction: float = 0.1,
        scenario: ScenarioSpec | None = None,
        seed: int = 0,
        engine: str = "fast",
    ) -> None:
        if not allocation.split.total > 0:
            raise SimulationError("cannot simulate an allocation with zero total throughput")
        if not (0 <= warmup_fraction < 1):
            raise SimulationError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
        if engine not in ("fast", "reference"):
            raise SimulationError(f"unknown engine {engine!r} (choose 'fast' or 'reference')")
        self.problem = problem
        self.allocation = allocation
        self.arrival_rate = float(arrival_rate if arrival_rate is not None else problem.target_throughput)
        if self.arrival_rate <= 0:
            raise SimulationError(f"arrival rate must be positive, got {self.arrival_rate}")
        self.warmup_fraction = float(warmup_fraction)
        self.scenario = scenario if scenario is not None else DEFAULT_SCENARIO
        self.seed = int(seed)
        self.engine = engine

    # ------------------------------------------------------------------ #
    def run(
        self,
        horizon: float = 50.0,
        *,
        max_datasets: int | None = None,
        prefixes: Iterable[float] = (),
    ) -> SimulationReport:
        """Run the simulation until ``horizon`` time units (or ``max_datasets`` arrivals).

        ``prefixes`` asks for the reports of shorter horizons too (each in
        ``(0, horizon]``; order and duplicates do not matter).  They come
        back in ``metadata["prefixes"]``, a dict from horizon to report in
        ascending order, and each equals the report of an independent run to
        that horizon.  The fast engine builds them in the same run: events
        are ordered by ``(time, seq)`` and the extra arrivals a longer run
        pushes only shift later ``seq`` values, so every event up to ``h``
        is processed exactly as in a run to ``h``; the horizon-``h`` report
        is read from the live state just before the first event past ``h``
        (or at the end, if the event heap drains first).  Prefix reports
        carry no ``event_counters`` — those count the whole run.  The
        reference engine runs each prefix independently: it is the oracle.
        """
        if horizon <= 0:
            raise SimulationError(f"horizon must be positive, got {horizon}")
        shorter = sorted({float(h) for h in prefixes})
        if shorter and not (0 < shorter[0] and shorter[-1] <= horizon):
            raise SimulationError(
                f"prefix horizons must lie in (0, {horizon}], got {shorter}"
            )
        if self.engine == "fast":
            return self._run_fast(horizon, max_datasets, shorter)
        report = self._run_reference(horizon, max_datasets)
        if shorter:
            report.metadata["prefixes"] = {
                h: self._run_reference(h, max_datasets) for h in shorter
            }
        return report

    # ------------------------------------------------------------------ #
    # shared setup
    # ------------------------------------------------------------------ #
    def _build_pool(self) -> tuple[ProcessorPool, "object"]:
        """Build the seeded processor pool and the arrival-time stream."""
        arrival_rng, failure_rng = spawn_generators(self.seed, 2)
        pool = ProcessorPool(
            self.problem.platform, self.allocation, slowdowns=self.scenario.slowdown_map()
        )
        pool.apply_failures(self.scenario.failures, failure_rng)
        arrival_times = self.scenario.arrival.times(self.arrival_rate, arrival_rng)
        return pool, arrival_times

    def _first_arrival(self, arrival_times) -> float:
        """Draw and validate the first arrival (the schedule-boundary check).

        Event times are validated here and at every subsequent draw (the
        monotonicity check in the loop) rather than per event push — see the
        invariant documented in :mod:`repro.simulation.events`.
        """
        first = next(arrival_times)
        if first < 0:
            raise SimulationError(
                f"arrival process {self.scenario.arrival.kind!r} produced a negative "
                f"first arrival time ({first})"
            )
        return first

    # ------------------------------------------------------------------ #
    # fast engine
    # ------------------------------------------------------------------ #
    def _profile(self, recipe: RecipeGraph, pool: ProcessorPool) -> tuple:
        """Precompute the per-recipe task table the fast loop indexes.

        Returns ``(taskinfo, npred, initial, ntasks)``.  ``taskinfo`` maps a
        task id to ``(work, selector, successor ids, type id, guard)``:
        *selector* is the type's dispatch heap (heap-indexed group), the
        instance tuple (small group, direct least-loaded walk), or ``None``
        for a type the allocation does not rent — an error only if such a
        task is actually dispatched, exactly like the reference's selection;
        *guard* is the end of the type's last failure window (0.0 when never
        affected), before which dispatch must run the availability-filtered
        scan.  ``npred`` is the remaining-predecessor template copied per
        data set.  Both are lists indexed by task id when the ids are dense
        (the common case), dicts otherwise — the loop subscripts either.
        Successor/source orders are captured once from the same live graph
        the reference engine queries per completion, so the dispatch order is
        bit-for-bit the reference's.
        """
        ids = recipe.task_ids()
        info_by_id = {}
        npred_by_id = {}
        for task_id in ids:
            task = recipe.task(task_id)
            type_id = task.task_type
            selector: list | tuple | None = pool._heaps.get(type_id)
            if selector is None:
                group = pool._by_type.get(type_id)
                if group:
                    selector = tuple(group)
            info_by_id[task_id] = (
                task.work,
                selector,
                tuple(recipe.successors(task_id)),
                type_id,
                pool.guard_until(type_id),
            )
            npred_by_id[task_id] = len(recipe.predecessors(task_id))
        if ids == list(range(len(ids))):
            taskinfo = [info_by_id[i] for i in ids]
            npred: list | dict = [npred_by_id[i] for i in ids]
        else:
            taskinfo, npred = info_by_id, npred_by_id
        return taskinfo, npred, tuple(recipe.sources()), recipe.num_tasks

    def _run_fast(
        self, horizon: float, max_datasets: int | None, prefixes: list[float]
    ) -> SimulationReport:
        """The inlined hot loop.

        Everything per-event is local: raw ``(time, seq, kind, arg)`` tuples
        on a plain heap, pending tasks as bare ``(dataset_id, task_id, work)``
        tuples, data sets as ``[taskinfo, arrival, remaining, count]`` lists,
        the reorder buffer as a set plus a release cursor.  Selection walks
        the type's instance tuple directly for small groups and uses the
        pool's lazy heap (with ``heapreplace`` fusing the selected entry's
        key update) for large ones; availability is a single ``now < guard``
        float comparison per dispatch, 0.0 for everything a failure window
        never touches.  ``ProcessorInstance.completed_tasks`` is not
        maintained here (nothing in a report reads it); every report field is
        byte-identical to the reference engine's.  ``prefixes`` (ascending)
        cost one float comparison per event, the same one that ends the run:
        ``limit`` is the earliest horizon still to report.
        """
        pool, arrival_times = self._build_pool()
        recipes = self.problem.application.recipes()

        # pure-Python stride router state (reference: RecipeRouter) — data set
        # i goes to the active recipe j minimising (assigned_j + 1) / rho_j;
        # first index wins ties, matching np.argmin's first-minimum semantics
        weights = [float(v) for v in self.allocation.split.values]
        if sum(weights) <= 0:
            raise SimulationError("cannot route a stream with an all-zero throughput split")
        active = [j for j, w in enumerate(weights) if w > 0]
        assigned = [0] * len(weights)
        # task tables for the recipes the router can pick; the others are
        # never indexed
        profiles: list = [None] * len(recipes)
        for j in active:
            profiles[j] = self._profile(recipes[j], pool)

        pending_prefixes = list(prefixes)
        reports: dict[float, SimulationReport] = {}
        limit = pending_prefixes[0] if pending_prefixes else horizon

        # Only in-flight data sets are kept: a completed data set is evicted
        # as soon as it is released, so the dict's size is the current backlog
        # (a few data sets for a well-dimensioned allocation) rather than the
        # total number of arrivals — long-horizon campaigns depend on this.
        datasets: dict[int, list] = {}
        in_flight = 0
        peak_in_flight = 0
        latencies: list[float] = []
        # (arrival time, completion time) of every finished data set: the
        # warm-up filter needs both ends, not just the completion stamp
        completions: list[tuple[float, float]] = []
        arrivals = 0

        # inlined reorder buffer: completed-out-of-order data sets wait in
        # `held` until every earlier one finished (release is in arrival
        # order, so a cursor suffices); the peak is the reported buffer size
        held: set[int] = set()
        held_add = held.add
        held_discard = held.discard
        next_release = 0
        reorder_peak = 0

        # raw (time, seq, kind, arg) event tuples on a local heap; `seq`
        # increments per push exactly like EventQueue's counter, so the
        # (time, sequence) stream matches the reference engine's event order
        events: list = []
        seq = 0  # total event-heap pushes, doubling as the heappush counter
        dispatch_scan = 0  # instances examined while picking dispatch targets
        push = heappush
        pop = heappop
        replace = heapreplace
        arrival_next = arrival_times.__next__
        latencies_append = latencies.append
        completions_append = completions.append
        INF = float("inf")

        first_arrival = self._first_arrival(arrival_times)
        if first_arrival <= horizon:
            events.append((first_arrival, 0, _ARRIVAL, 0))
            seq = 1
        now = 0.0
        while events:
            ev = pop(events)
            now = ev[0]
            if now > limit:
                # the clock passed `limit`: report every prefix horizon it
                # passed from the state before this event, then stop at the
                # run's own horizon
                while pending_prefixes and now > pending_prefixes[0]:
                    at = pending_prefixes.pop(0)
                    reports[at] = self._report(
                        at, arrivals, latencies, completions, pool, reorder_peak,
                        _recipe_mix(assigned), len(datasets), peak_in_flight,
                    )
                limit = pending_prefixes[0] if pending_prefixes else horizon
                if now > horizon:
                    break
            kind = ev[2]

            if kind == 1:  # TASK_COMPLETE — one per task served, the hottest arm
                inst = ev[3]
                task = inst.current
                if task is None:
                    raise SimulationError(
                        f"instance {inst.instance_id} has no task in service at t={now}"
                    )
                ds_id, finished_id, finished_work = task
                inst.current = None
                pw = inst._pending_work - finished_work
                if not inst.queue:
                    pw = 0.0
                inst._pending_work = pw
                heap = inst._heap
                if heap is not None:
                    push(heap, (pw, inst.instance_id, inst))

                ds = datasets[ds_id]
                taskinfo = ds[0]
                remaining = ds[2]
                for succ in taskinfo[finished_id][2]:
                    left = remaining[succ] - 1
                    remaining[succ] = left
                    if left == 0:
                        # -- dispatch `succ` of data set `ds_id` ---------- #
                        info = taskinfo[succ]
                        sel = info[1]
                        work = info[0]
                        if now < info[4]:  # type failure window open (rare)
                            target = pool.select_instance(info[3], now)
                            dispatch_scan += 1
                            target.queue.append((ds_id, succ, work))
                            tw = target._pending_work + work
                            target._pending_work = tw
                            if target._heap is not None:
                                push(target._heap, (tw, target.instance_id, target))
                        elif type(sel) is tuple:  # small group: direct walk
                            best = INF
                            target = None
                            for cand in sel:
                                w = cand._pending_work
                                if w < best:
                                    best = w
                                    target = cand
                            dispatch_scan += len(sel)
                            target.queue.append((ds_id, succ, work))
                            target._pending_work = best + work
                        elif sel is None:
                            raise SimulationError(
                                f"the allocation rents no machine of type {info[3]!r} "
                                "but a task of that type was dispatched"
                            )
                        else:  # heap-indexed group
                            while True:
                                entry = sel[0]
                                target = entry[2]
                                dispatch_scan += 1
                                if entry[0] == target._pending_work:
                                    break
                                pop(sel)
                            target.queue.append((ds_id, succ, work))
                            tw = target._pending_work + work
                            target._pending_work = tw
                            # the selected entry is the (valid) top: replace
                            # its key in one sift instead of push + stale pop
                            replace(sel, (tw, target.instance_id, target))
                        if target.current is None:
                            if now < target.guard_until and not target.available_at(now):
                                wake = target.next_available(now)
                                if wake > now and target.wake_at != wake:
                                    target.wake_at = wake
                                    push(events, (wake, seq, 2, target))
                                    seq += 1
                            else:
                                started = target.queue.popleft()
                                duration = started[2] / target.throughput
                                target.current = started
                                until = now + duration
                                target.busy_until = until
                                target.busy_time += duration
                                push(events, (until, seq, 1, target))
                                seq += 1
                pending = ds[3] - 1
                ds[3] = pending
                if pending == 0:
                    arrived = ds[1]
                    latencies_append(now - arrived)
                    completions_append((arrived, now))
                    del datasets[ds_id]
                    in_flight -= 1
                    held_add(ds_id)
                    occupancy = len(held)
                    if occupancy > reorder_peak:
                        reorder_peak = occupancy
                    while next_release in held:
                        held_discard(next_release)
                        next_release += 1
                # the instance is free: start its next queued task, if any
                if inst.current is None and inst.queue:
                    if now < inst.guard_until and not inst.available_at(now):
                        wake = inst.next_available(now)
                        if wake > now and inst.wake_at != wake:
                            inst.wake_at = wake
                            push(events, (wake, seq, 2, inst))
                            seq += 1
                    else:
                        started = inst.queue.popleft()
                        duration = started[2] / inst.throughput
                        inst.current = started
                        until = now + duration
                        inst.busy_until = until
                        inst.busy_time += duration
                        push(events, (until, seq, 1, inst))
                        seq += 1

            elif kind == 0:  # ARRIVAL
                ds_id = ev[3]
                if max_datasets is not None and ds_id >= max_datasets:
                    continue
                # route: first active recipe minimising (assigned + 1) / weight
                best_recipe = -1
                best_score = INF
                for j in active:
                    score = (assigned[j] + 1) / weights[j]
                    if score < best_score:
                        best_score = score
                        best_recipe = j
                assigned[best_recipe] += 1
                profile = profiles[best_recipe]
                taskinfo = profile[0]
                datasets[ds_id] = [taskinfo, now, profile[1].copy(), profile[3]]
                arrivals += 1
                in_flight += 1
                if in_flight > peak_in_flight:
                    peak_in_flight = in_flight
                for task_id in profile[2]:
                    # -- dispatch source task `task_id` ------------------- #
                    info = taskinfo[task_id]
                    sel = info[1]
                    work = info[0]
                    if now < info[4]:  # type failure window open (rare)
                        target = pool.select_instance(info[3], now)
                        dispatch_scan += 1
                        target.queue.append((ds_id, task_id, work))
                        tw = target._pending_work + work
                        target._pending_work = tw
                        if target._heap is not None:
                            push(target._heap, (tw, target.instance_id, target))
                    elif type(sel) is tuple:  # small group: direct walk
                        best = INF
                        target = None
                        for cand in sel:
                            w = cand._pending_work
                            if w < best:
                                best = w
                                target = cand
                        dispatch_scan += len(sel)
                        target.queue.append((ds_id, task_id, work))
                        target._pending_work = best + work
                    elif sel is None:
                        raise SimulationError(
                            f"the allocation rents no machine of type {info[3]!r} "
                            "but a task of that type was dispatched"
                        )
                    else:  # heap-indexed group
                        while True:
                            entry = sel[0]
                            target = entry[2]
                            dispatch_scan += 1
                            if entry[0] == target._pending_work:
                                break
                            pop(sel)
                        target.queue.append((ds_id, task_id, work))
                        tw = target._pending_work + work
                        target._pending_work = tw
                        replace(sel, (tw, target.instance_id, target))
                    if target.current is None:
                        if now < target.guard_until and not target.available_at(now):
                            wake = target.next_available(now)
                            if wake > now and target.wake_at != wake:
                                target.wake_at = wake
                                push(events, (wake, seq, 2, target))
                                seq += 1
                        else:
                            started = target.queue.popleft()
                            duration = started[2] / target.throughput
                            target.current = started
                            until = now + duration
                            target.busy_until = until
                            target.busy_time += duration
                            push(events, (until, seq, 1, target))
                            seq += 1
                next_time = arrival_next()
                if next_time < now:
                    raise SimulationError(
                        f"arrival process {self.scenario.arrival.kind!r} went backwards "
                        f"({next_time} after {now})"
                    )
                if next_time <= horizon:
                    push(events, (next_time, seq, 0, ds_id + 1))
                    seq += 1

            else:  # RESUME — a failure window ended on an instance with queued work
                inst = ev[3]
                inst.wake_at = None
                if inst.current is None and inst.queue:
                    if now < inst.guard_until and not inst.available_at(now):
                        wake = inst.next_available(now)
                        if wake > now and inst.wake_at != wake:
                            inst.wake_at = wake
                            push(events, (wake, seq, 2, inst))
                            seq += 1
                    else:
                        started = inst.queue.popleft()
                        duration = started[2] / inst.throughput
                        inst.current = started
                        until = now + duration
                        inst.busy_until = until
                        inst.busy_time += duration
                        push(events, (until, seq, 1, inst))
                        seq += 1

        recipe_mix = _recipe_mix(assigned)
        # the heap drained before these horizons: nothing changes after it
        for at in pending_prefixes:
            reports[at] = self._report(
                at, arrivals, latencies, completions, pool, reorder_peak,
                recipe_mix, len(datasets), peak_in_flight,
            )
        report = self._report(
            horizon, arrivals, latencies, completions, pool, reorder_peak,
            recipe_mix, len(datasets), peak_in_flight,
            event_counters={
                "heappush": seq,
                "heappop": seq - len(events),
                "dispatch_scan": dispatch_scan,
            },
        )
        if prefixes:
            report.metadata["prefixes"] = reports
        return report

    # ------------------------------------------------------------------ #
    # reference engine (the original loop, kept as the equivalence oracle)
    # ------------------------------------------------------------------ #
    def _run_reference(self, horizon: float, max_datasets: int | None) -> SimulationReport:
        pool, arrival_times = self._build_pool()
        router = RecipeRouter(self.allocation.split)
        reorder = ReorderBuffer()
        queue = EventQueue()
        recipes = self.problem.application.recipes()

        datasets: dict[int, DataSetInstance] = {}
        peak_in_flight = 0
        latencies: list[float] = []
        completions: list[tuple[float, float]] = []
        arrivals = 0

        first_arrival = self._first_arrival(arrival_times)
        if first_arrival <= horizon:
            queue.push(first_arrival, EventKind.ARRIVAL, 0)
        now = 0.0
        while queue:
            event = queue.pop()
            now = event.time
            if now > horizon:
                break
            if event.kind == EventKind.ARRIVAL:
                dataset_id = event.arg
                if max_datasets is not None and dataset_id >= max_datasets:
                    continue
                recipe_index = router.route()
                dataset = DataSetInstance(dataset_id, recipe_index, recipes[recipe_index], now)
                datasets[dataset_id] = dataset
                arrivals += 1
                peak_in_flight = max(peak_in_flight, len(datasets))
                for task_id in dataset.initial_tasks():
                    self._dispatch(pool, queue, dataset, task_id, now)
                next_time = next(arrival_times)
                if next_time < now:
                    raise SimulationError(
                        f"arrival process {self.scenario.arrival.kind!r} went backwards "
                        f"({next_time} after {now})"
                    )
                if next_time <= horizon:
                    queue.push(next_time, EventKind.ARRIVAL, dataset_id + 1)
            elif event.kind == EventKind.TASK_COMPLETE:
                instance = event.arg
                finished = instance.finish_current(now)
                dataset = datasets[finished.dataset_id]
                for ready in dataset.complete_task(finished.task_id, now):
                    self._dispatch(pool, queue, dataset, ready, now)
                if dataset.is_complete:
                    latency = dataset.latency
                    if latency is None:
                        # completion bookkeeping failed to stamp the data set;
                        # recording 0.0 here would silently poison mean_latency
                        raise SimulationError(
                            f"data set {dataset.dataset_id} completed at t={now} "
                            "without a completion timestamp"
                        )
                    latencies.append(latency)
                    completions.append((dataset.arrival_time, now))
                    reorder.complete(dataset.dataset_id)
                    del datasets[dataset.dataset_id]
                # The instance is free: start its next queued task, if any.
                self._start_or_wake(queue, instance, now)
            elif event.kind == EventKind.RESUME:
                # a failure window ended on an instance with queued work
                instance = event.arg
                instance.wake_at = None
                self._start_or_wake(queue, instance, now)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {event.kind!r}")

        recipe_mix = tuple(float(x) for x in router.mix())
        return self._report(
            horizon, arrivals, latencies, completions, pool, reorder.peak_occupancy,
            recipe_mix, len(datasets), peak_in_flight,
        )

    # ------------------------------------------------------------------ #
    def _dispatch(self, pool, queue, dataset: DataSetInstance, task_id: int, now: float) -> None:
        """Send a ready task to the least-loaded available instance of its type.

        Reference-engine path: selection goes through the original linear
        scan, keeping this implementation independent of the heap index the
        fast engine (and :meth:`ProcessorPool.select_instance`) relies on.
        """
        task = dataset.recipe.task(task_id)
        instance = pool.select_instance_scan(task.task_type, now)
        dataset.mark_started(task_id)
        instance.enqueue(PendingTask(dataset.dataset_id, task_id, task.work))
        self._start_or_wake(queue, instance, now)

    def _start_or_wake(
        self, queue: EventQueue, instance: ProcessorInstance, now: float
    ) -> None:
        """Start the instance's next task, or schedule a post-failure wake-up.

        When the instance is idle with queued work but inside a failure
        window, a single ``RESUME`` event is scheduled at the window's end
        (``wake_at`` dedupes — several dispatches during one window must not
        pile up wake-ups).
        """
        started = instance.start_next(now)
        if started is not None:
            _task, completion = started
            queue.push(completion, EventKind.TASK_COMPLETE, instance)
            return
        if instance.current is None and instance.queue:
            wake = instance.next_available(now)
            if wake > now and instance.wake_at != wake:
                instance.wake_at = wake
                queue.push(wake, EventKind.RESUME, instance)

    # ------------------------------------------------------------------ #
    def _report(
        self,
        horizon: float,
        arrivals: int,
        latencies: list[float],
        completions: list[tuple[float, float]],
        pool: ProcessorPool,
        reorder_peak: int,
        recipe_mix: tuple[float, ...],
        backlog: int,
        peak_in_flight: int,
        event_counters: "dict | None" = None,
    ) -> SimulationReport:
        warmup = horizon * self.warmup_fraction
        window = horizon - warmup
        # achieved_throughput counts data sets that *arrived* after the
        # warm-up; counting every completion in the window (window_throughput,
        # kept for reference) lets backlog built during the warm-up drain into
        # the window and can report a rate above what actually arrived
        steady = sum(1 for arrived, _ in completions if arrived >= warmup)
        in_window = sum(1 for _, completed in completions if completed >= warmup)
        achieved = steady / window if window > 0 else 0.0
        window_throughput = in_window / window if window > 0 else 0.0
        mean_latency, max_latency = SimulationReport.latency_stats(latencies)
        metadata: dict = {
            "num_instances": pool.num_instances,
            "peak_in_flight": peak_in_flight,
        }
        if event_counters is not None:
            metadata["event_counters"] = event_counters
        return SimulationReport(
            horizon=horizon,
            arrivals=arrivals,
            completed=len(completions),
            achieved_throughput=achieved,
            target_throughput=self.arrival_rate,
            mean_latency=mean_latency,
            max_latency=max_latency,
            utilization=pool.utilization_by_type(horizon),
            reorder_buffer_peak=reorder_peak,
            backlog=backlog,
            recipe_mix=recipe_mix,
            warmup=warmup,
            window_throughput=window_throughput,
            scenario=self.scenario.name,
            metadata=metadata,
        )
