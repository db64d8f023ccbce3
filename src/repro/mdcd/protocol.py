"""The MDCD protocol engine.

Binds the three application processes to the discrete-event kernel and
executes the protocol rules of Section 2 of the paper:

* message-driven: processes emit internal/external messages at rate
  ``lambda`` (external with probability ``p_ext``);
* confidence-driven: dirty bits track believed potential contamination;
  ``P1new`` is pinned suspect during guarded operation;
* checkpointing rule: a process checkpoints exactly when a received
  message newly makes its believed-clean state potentially contaminated;
* validation policy: acceptance tests guard external messages of
  potentially contaminated active processes, detecting erroneous ones
  with coverage ``c``;
* recovery: on detection, ``P1old`` takes over (rollback / roll-forward
  to a validity-consistent global state) and the system returns to the
  normal mode;
* failure: an erroneous external message that reaches the environment
  (AT escape, or no AT applicable) fails the system.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.des.engine import Engine
from repro.des.rng import RandomStreams
from repro.gsu.parameters import GSUParameters
from repro.mdcd.acceptance_test import AcceptanceTest, ATOutcome
from repro.mdcd.checkpoint import CheckpointStore
from repro.mdcd.failure import FaultInjector
from repro.mdcd.messages import Message, MessageKind
from repro.mdcd.process import ApplicationProcess, ProcessRole


class SystemMode(enum.Enum):
    """Operating mode of the system."""

    GUARDED = "guarded"
    NORMAL = "normal"
    FAILED = "failed"


class UpgradeOutcome(enum.Enum):
    """Final disposition of one guarded upgrade attempt."""

    SUCCESS = "success"  # G-OP completed with no error
    SAFE_DOWNGRADE = "safe-downgrade"  # error detected, old version restored
    FAILURE = "failure"  # erroneous external message escaped


@dataclass
class ProtocolEventCounts:
    """Aggregate event counters for one run."""

    messages: int = 0
    external_messages: int = 0
    acceptance_tests: int = 0
    checkpoints: int = 0
    suppressed: int = 0
    resent: int = 0


class MDCDProtocol:
    """One guarded-operation episode under the MDCD protocol.

    Parameters
    ----------
    engine:
        Simulation engine (fresh per episode).
    params:
        The GSU study parameters.
    phi:
        Guarded-operation duration; at ``phi`` (if no error occurred) the
        system transitions to the normal mode with ``P1new`` in service.
    streams:
        Random streams for message timing, kinds, coverage, durations.
    """

    def __init__(
        self,
        engine: Engine,
        params: GSUParameters,
        phi: float,
        streams: RandomStreams,
    ):
        params.validate_phi(phi)
        self.engine = engine
        self.params = params
        self.phi = phi
        self.streams = streams
        self.mode = SystemMode.GUARDED if phi > 0 else SystemMode.NORMAL
        self.p1new = ApplicationProcess(
            "P1new", ProcessRole.ACTIVE_NEW, always_suspect=phi > 0
        )
        self.p1old = ApplicationProcess(
            "P1old",
            ProcessRole.SHADOW_OLD if phi > 0 else ProcessRole.RETIRED,
        )
        self.p2 = ApplicationProcess("P2", ProcessRole.ACTIVE_PEER)
        self.checkpoints = CheckpointStore()
        self.acceptance_test = AcceptanceTest(
            coverage=params.coverage,
            completion_rate=params.alpha,
            streams=streams,
        )
        self.faults = FaultInjector(engine=engine, streams=streams)
        self.counts = ProtocolEventCounts()
        self.outcome: UpgradeOutcome | None = None
        self.detection_time: float | None = None
        self.failure_time: float | None = None
        self.recovery_plan = None  # set by _recover on detection
        self._gop_end_handled = phi == 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm fault injection, message loops, and the G-OP deadline."""
        self.faults.arm(self.p1new, self.params.mu_new)
        self.faults.arm(self.p1old, self.params.mu_old)
        self.faults.arm(self.p2, self.params.mu_old)
        for process in (self.p1new, self.p1old, self.p2):
            self._schedule_next_send(process)
        if self.phi > 0:
            self.engine.schedule_at(
                self.phi, self._complete_guarded_operation, tag="gop-end"
            )

    # ------------------------------------------------------------------
    # Message machinery
    # ------------------------------------------------------------------
    def _schedule_next_send(self, process: ApplicationProcess) -> None:
        delay = self.streams.exponential(f"send_{process.name}", self.params.lam)
        self.engine.schedule(
            delay, lambda: self._send_event(process), tag=f"send:{process.name}"
        )

    def _participating(self, process: ApplicationProcess) -> bool:
        if self.mode is SystemMode.FAILED:
            return False
        return process.role is not ProcessRole.RETIRED

    def _send_event(self, process: ApplicationProcess) -> None:
        if not self._participating(process):
            return
        self._schedule_next_send(process)
        if process.is_busy(self.engine.now):
            # A safeguard activity occupies the process; no computation
            # progress, hence no message this cycle.
            return
        kind = (
            MessageKind.EXTERNAL
            if self.streams.bernoulli(f"kind_{process.name}", self.params.p_ext)
            else MessageKind.INTERNAL
        )
        message = Message.create(
            sender=process.name,
            kind=kind,
            erroneous=process.contaminated,
            sent_at=self.engine.now,
            sender_potentially_contaminated=process.potentially_contaminated,
        )
        self.counts.messages += 1
        process.messages_sent += 1
        if process.role is ProcessRole.SHADOW_OLD:
            # Shadow outputs are suppressed but logged (Section 2).
            process.message_log.append(message)
            process.messages_suppressed += 1
            self.counts.suppressed += 1
            return
        if kind is MessageKind.EXTERNAL:
            self._external_message(process, message)
        else:
            self._internal_message(process, message)

    # ------------------------------------------------------------------
    # External messages: validation policy, detection, failure
    # ------------------------------------------------------------------
    def _external_message(
        self, process: ApplicationProcess, message: Message
    ) -> None:
        self.counts.external_messages += 1
        if AcceptanceTest.required(message, self.mode is SystemMode.GUARDED):
            duration = self.acceptance_test.duration()
            process.occupy(self.engine.now, duration)
            self.counts.acceptance_tests += 1
            outcome = self.acceptance_test.execute(message)
            if outcome is ATOutcome.PASS:
                # Validated computation clears the believed contamination
                # of P2 and the shadow (the ok_ext gates of RMGd).
                self.p2.clear_confidence()
                self.p1old.clear_confidence()
            elif outcome is ATOutcome.DETECTED:
                self.engine.schedule(
                    duration, self._recover, priority=-1, tag="recovery"
                )
            else:
                self.engine.schedule(
                    duration, self._fail, priority=-1, tag="failure"
                )
            return
        if message.erroneous:
            # No AT stands between the erroneous message and the
            # environment: system failure.
            self._fail()

    # ------------------------------------------------------------------
    # Internal messages: propagation and the checkpointing rule
    # ------------------------------------------------------------------
    def _internal_message(
        self, sender: ApplicationProcess, message: Message
    ) -> None:
        for receiver in self._receivers_of(sender):
            self._receive(receiver, message)

    def _receivers_of(
        self, sender: ApplicationProcess
    ) -> list[ApplicationProcess]:
        if self.mode is SystemMode.GUARDED:
            if sender is self.p1new:
                return [self.p2]
            if sender is self.p2:
                # The shadow receives the same incoming messages as the
                # active P1new so both compute on identical inputs.
                return [self.p1new, self.p1old]
            return []  # shadow messages are suppressed before delivery
        # Normal mode: the two active processes exchange messages.
        active_first = self.p1new if self.p1new.is_active() else self.p1old
        if sender is active_first:
            return [self.p2]
        if sender is self.p2:
            return [active_first]
        return []

    def _receive(self, receiver: ApplicationProcess, message: Message) -> None:
        if self.mode is SystemMode.GUARDED:
            if CheckpointStore.checkpoint_required(
                receiver.potentially_contaminated,
                message.sender_potentially_contaminated,
            ):
                # Checkpoint the pre-receipt state, then turn dirty.
                duration = self.streams.exponential(
                    "ckpt_duration", self.params.beta
                )
                receiver.occupy(self.engine.now, duration)
                self.checkpoints.establish(
                    receiver.name,
                    self.engine.now,
                    state_valid=not receiver.contaminated,
                )
                self.counts.checkpoints += 1
            if message.sender_potentially_contaminated:
                receiver.mark_potentially_contaminated()
        if message.erroneous:
            receiver.contaminate()

    # ------------------------------------------------------------------
    # Mode transitions
    # ------------------------------------------------------------------
    def _complete_guarded_operation(self) -> None:
        """At ``phi``: if no error occurred, enter the normal mode with
        the upgraded software in service."""
        if self._gop_end_handled or self.mode is not SystemMode.GUARDED:
            return
        self._gop_end_handled = True
        self.mode = SystemMode.NORMAL
        self.outcome = UpgradeOutcome.SUCCESS
        self.p1old.role = ProcessRole.RETIRED
        self.p1new.always_suspect = False
        self.p1new.clear_confidence()
        self.p2.clear_confidence()
        self.checkpoints.discard_all()

    def _recover(self) -> None:
        """Successful detection: P1old takes over; each process locally
        decides rollback vs roll-forward; the shadow re-sends logged
        messages from after the recovery point; normal mode resumes."""
        if self.mode is not SystemMode.GUARDED:
            return
        from repro.mdcd.recovery import apply_recovery, plan_recovery

        self.mode = SystemMode.NORMAL
        self.outcome = UpgradeOutcome.SAFE_DOWNGRADE
        self.detection_time = self.engine.now
        self._gop_end_handled = True
        self.recovery_plan = plan_recovery(
            self.p1old, self.p2, self.checkpoints, self.engine.now
        )
        self.p1new.role = ProcessRole.RETIRED
        self.p1old.role = ProcessRole.ACTIVE_OLD
        apply_recovery(self.recovery_plan, self.p1old, self.p2)
        self.counts.resent = len(self.recovery_plan.resend)
        self.checkpoints.discard_all()

    def _fail(self) -> None:
        """An erroneous external message reached the environment."""
        if self.mode is SystemMode.FAILED:
            return
        self.mode = SystemMode.FAILED
        self.outcome = UpgradeOutcome.FAILURE
        self.failure_time = self.engine.now
        self.faults.stop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_mission_processes(self) -> list[ApplicationProcess]:
        """The processes currently servicing the mission."""
        return [
            p
            for p in (self.p1new, self.p1old, self.p2)
            if p.is_active() and self.mode is not SystemMode.FAILED
        ]
