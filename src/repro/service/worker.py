"""Worker agent: pull scenarios from a coordinator, push back shards.

The execution half of the distributed campaign service.  A worker is a
poll loop around one :class:`~repro.orchestration.runner.CampaignRunner`:

1. ``POST /lease`` — ask for work.  The grant carries the scenario,
   the campaign configuration and the fault count, so the worker
   executes exactly the coordinator's campaign (never local flags that
   could diverge).
2. Execute through :meth:`CampaignRunner.run_one` — the same
   scenario-granular path the local suite loop uses, so a distributed
   campaign is bit-identical to a single-process run.
3. ``POST /complete`` with the lossless shard payload (or ``/fail``
   with a structured error).  A background heartbeat renews the lease
   every ``ttl / 4`` seconds while the scenario runs; if the lease was
   lost (the worker stalled past its ttl and the scenario was
   reclaimed) the result is discarded — the reclaiming peer's run is
   the one that counts.

Idle polls (everything leased out by peers) and coordinator connection
errors back off exponentially **with jitter**, so a fleet of workers
started by the same script does not stampede the coordinator in
lockstep.  ``request_stop()`` — wired to SIGINT by the CLI — drains
gracefully: the current scenario finishes and commits, then the loop
exits.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
import urllib.error
import urllib.request
from typing import Callable, Optional

from repro.errors import SimulatorError
from repro.injection.campaign import CampaignConfig
from repro.npb.suite import Scenario
from repro.orchestration.logging import CampaignLogger
from repro.orchestration.runner import CampaignRunner
from repro.stats.plan import SamplingPlan
from repro.stats.prior import MinedPrior


class CoordinatorUnreachable(SimulatorError):
    """The coordinator stayed unreachable through every retry."""


def jittered_backoff(attempt: int, base: float, ceiling: float, rng: random.Random) -> float:
    """Exponential backoff with multiplicative jitter in [0.5, 1.0].

    The shared delay policy of the service layer: the worker's idle/
    connect polling and the client's per-request retries draw from the
    same formula, so a fleet started by one script never stampedes the
    coordinator in lockstep.
    """
    delay = min(ceiling, base * (2.0 ** attempt))
    return delay * (0.5 + 0.5 * rng.random())


class CoordinatorClient:
    """Minimal JSON-over-HTTP client for the coordinator's endpoints.

    Connection-level failures (``URLError``, socket timeouts, refused
    connects) are retried up to ``retries`` times with jittered
    exponential backoff before the final ``ConnectionError`` escapes:
    a coordinator briefly unreachable — restarting, or behind a blinking
    link — must not cost a worker its held lease.  HTTP-level rejections
    (the coordinator *answered* and said no) are never retried.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 3,
        backoff_base: float = 0.5,
        backoff_max: float = 8.0,
        logger: Optional[CampaignLogger] = None,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.logger = logger or CampaignLogger("client", quiet=True)
        self.rng = rng or random.Random()
        self._sleep = sleep

    def request(self, path: str, payload: Optional[dict] = None) -> dict:
        """One JSON exchange; ``payload=None`` sends a GET.

        Retries transient transport failures with jittered backoff (see
        class docstring); every retry is logged at role-prefixed INFO.
        """
        attempt = 0
        while True:
            try:
                return self._request_once(path, payload)
            except ConnectionError as exc:
                if attempt >= self.retries:
                    raise
                delay = jittered_backoff(attempt, self.backoff_base, self.backoff_max, self.rng)
                self.logger.info(
                    f"transient failure on {path} "
                    f"(attempt {attempt + 1}/{self.retries + 1}): {exc}; "
                    f"retrying in {delay:.1f}s"
                )
                self._sleep(delay)
                attempt += 1

    def _request_once(self, path: str, payload: Optional[dict] = None) -> dict:
        """One JSON round trip; ``payload=None`` sends a GET."""
        url = f"{self.base_url}{path}"
        if payload is None:
            request = urllib.request.Request(url)
        else:
            request = urllib.request.Request(
                url,
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except ValueError:
                pass
            raise SimulatorError(f"coordinator rejected {path}: {detail}") from exc
        except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
            raise ConnectionError(f"coordinator unreachable at {url}: {exc}") from exc
        return body

    def post(self, path: str, payload: dict) -> dict:
        return self.request(path, payload)

    def get(self, path: str) -> dict:
        return self.request(path)


class _RemoteHeartbeat:
    """Renew one lease over HTTP while its scenario executes locally."""

    def __init__(self, client: CoordinatorClient, worker: str, scenario_id: str, ttl: float) -> None:
        self.client = client
        self.worker = worker
        self.scenario_id = scenario_id
        self.interval = max(0.05, ttl / 4.0)
        self.lost = False
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"renew-{scenario_id}", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                response = self.client.post(
                    "/renew", {"worker": self.worker, "scenario_id": self.scenario_id}
                )
            except (ConnectionError, SimulatorError):
                continue  # transient; the ttl gives us 4 tries before expiry
            if not response.get("ok", False):
                self.lost = True
                return

    def __enter__(self) -> "_RemoteHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class WorkerAgent:
    """One campaign worker: poll, execute, report, repeat.

    Parameters
    ----------
    coordinator:
        Coordinator base URL (``http://host:port``) or a ready
        :class:`CoordinatorClient`.
    worker_id:
        Lease owner name; defaults to ``worker-<pid>``.
    workers / faults_per_job / job_retries:
        Forwarded to the per-config :class:`CampaignRunner` (``workers``
        is this agent's *local* pool size — 0 runs injections in
        process).
    poll_interval / backoff_max:
        Idle-poll base delay and the exponential backoff ceiling for
        idle polls and connection retries.
    max_connect_failures:
        Consecutive unreachable-coordinator retries before giving up
        with :class:`CoordinatorUnreachable`.
    rng:
        Jitter source, injectable for deterministic tests.
    """

    def __init__(
        self,
        coordinator: "CoordinatorClient | str",
        worker_id: Optional[str] = None,
        workers: int = 0,
        faults_per_job: int = 16,
        job_retries: int = 1,
        poll_interval: float = 1.0,
        backoff_max: float = 30.0,
        max_connect_failures: int = 10,
        logger: Optional[CampaignLogger] = None,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = None,
    ) -> None:
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.pool_workers = workers
        self.faults_per_job = faults_per_job
        self.job_retries = job_retries
        self.poll_interval = poll_interval
        self.backoff_max = backoff_max
        self.max_connect_failures = max_connect_failures
        self.logger = logger or CampaignLogger(self.worker_id, quiet=True)
        self.rng = rng or random.Random()
        self._stop = threading.Event()
        self._sleep = sleep or self._stoppable_sleep
        # A client built here inherits the worker's role-prefixed logger,
        # jitter source and stoppable sleep, so its per-request retry
        # lines are attributable to this worker in fleet logs and a stop
        # request interrupts its backoff waits too.
        self.client = (
            coordinator
            if isinstance(coordinator, CoordinatorClient)
            else CoordinatorClient(
                coordinator, logger=self.logger, rng=self.rng, sleep=self._sleep
            )
        )
        self._runners: dict[str, CampaignRunner] = {}
        #: scenarios this agent completed / failed / discarded
        self.completed = 0
        self.failed = 0
        self.discarded = 0

    # ------------------------------------------------------------------

    def request_stop(self) -> None:
        """Graceful drain: finish the scenario in flight, then exit."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def _stoppable_sleep(self, seconds: float) -> None:
        self._stop.wait(seconds)

    def _backoff(self, attempt: int, base: Optional[float] = None) -> float:
        """Exponential backoff with multiplicative jitter in [0.5, 1.0]."""
        return jittered_backoff(attempt, base or self.poll_interval, self.backoff_max, self.rng)

    def _runner_for(
        self,
        config_dict: dict,
        plan_dict: Optional[dict] = None,
        prior_dict: Optional[dict] = None,
    ) -> CampaignRunner:
        """One runner per distinct campaign (config, plan, prior) triple.

        The plan and prior are part of the cache key: a runner carrying
        the wrong stopping rule or allocation prior would silently draw
        a different batch stream than the coordinator's campaign.
        """
        key = json.dumps(
            {"config": config_dict, "plan": plan_dict, "prior": prior_dict}, sort_keys=True
        )
        runner = self._runners.get(key)
        if runner is None:
            runner = CampaignRunner(
                CampaignConfig.from_dict(config_dict),
                workers=self.pool_workers,
                faults_per_job=self.faults_per_job,
                job_retries=self.job_retries,
                progress=self.logger.progress(),
                plan=SamplingPlan.from_dict(plan_dict) if plan_dict is not None else None,
                prior=MinedPrior.from_dict(prior_dict) if prior_dict is not None else None,
            )
            self._runners[key] = runner
        return runner

    # ------------------------------------------------------------------

    def _checkpoint(self, scenario_id: str, payload: dict) -> None:
        """Push one batch checkpoint; best effort (the ttl is the backstop)."""
        try:
            self.client.post(
                "/checkpoint",
                {"worker": self.worker_id, "scenario_id": scenario_id, "partial": payload},
            )
        except (ConnectionError, SimulatorError) as exc:
            # A lost checkpoint costs at most the batches since the last
            # one — a reclaiming peer replays from the previous state.
            self.logger.debug(f"checkpoint of {scenario_id} not persisted: {exc}")

    def _execute_grant(self, grant: dict) -> None:
        scenario = Scenario.from_dict(grant["scenario"])
        scenario_id = scenario.scenario_id
        runner = self._runner_for(grant["config"], grant.get("plan"), grant.get("prior"))
        ttl = float(grant.get("lease_ttl") or 120.0)
        with _RemoteHeartbeat(self.client, self.worker_id, scenario_id, ttl) as heartbeat:
            try:
                report = runner.run_one(
                    scenario,
                    grant.get("faults"),
                    partial=grant.get("partial"),
                    checkpoint=self._checkpoint,
                )
            except KeyboardInterrupt:
                # No /fail: an interrupt is not a scenario failure.  The
                # lease simply expires and a peer reclaims the scenario.
                self.logger.warning(f"interrupted during {scenario_id}; lease will expire")
                raise
            except Exception as exc:  # noqa: BLE001 — reported, loop continues
                self.failed += 1
                self.client.post(
                    "/fail",
                    {
                        "worker": self.worker_id,
                        "scenario_id": scenario_id,
                        "phase": "run",
                        "error_type": type(exc).__name__,
                        "error": str(exc),
                    },
                )
                return
        if heartbeat.lost:
            self.discarded += 1
            self.logger.warning(f"lease on {scenario_id} lost mid-run; discarding result")
            return
        response = self.client.post(
            "/complete",
            {
                "worker": self.worker_id,
                "scenario_id": scenario_id,
                "report": report.to_payload(),
            },
        )
        if response.get("ok", False):
            self.completed += 1
            self.logger.info(f"committed {scenario_id}")
        else:
            self.discarded += 1
            self.logger.warning(f"coordinator rejected {scenario_id}; result discarded")

    def run(self) -> int:
        """Poll until the campaign is done (or stop is requested).

        Returns the number of scenarios this agent completed.
        """
        idle_polls = 0
        connect_failures = 0
        self.logger.info(f"polling {self.client.base_url} as {self.worker_id}")
        while not self._stop.is_set():
            try:
                grant = self.client.post("/lease", {"worker": self.worker_id})
            except ConnectionError as exc:
                connect_failures += 1
                if connect_failures >= self.max_connect_failures:
                    raise CoordinatorUnreachable(
                        f"coordinator unreachable after {connect_failures} attempts: {exc}"
                    ) from exc
                delay = self._backoff(connect_failures, base=0.5)
                self.logger.debug(f"coordinator unreachable; retrying in {delay:.1f}s")
                self._sleep(delay)
                continue
            connect_failures = 0
            if grant.get("scenario") is None:
                if grant.get("done", False):
                    self.logger.info(
                        f"campaign complete: {self.completed} scenario(s) by this worker"
                    )
                    break
                idle_polls += 1
                delay = self._backoff(idle_polls)
                self.logger.debug(f"nothing claimable; polling again in {delay:.1f}s")
                self._sleep(delay)
                continue
            idle_polls = 0
            self._execute_grant(grant)
        if self._stop.is_set():
            self.logger.info(f"drained after stop request ({self.completed} completed)")
        return self.completed
