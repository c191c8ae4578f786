"""Control-plane policy knobs and the decision record.

:class:`ControlPolicy` is the declarative half of the reconciliation
loop: thresholds, sustain requirements, cooldowns and provisioning
delays.  Everything the controller does is a pure function of this
policy plus the sampled telemetry, which is what keeps autoscaling runs
byte-deterministic under a fixed seed.

:class:`ControlDecision` is one line of the controller's decision log —
the audit trail operators get from a real autoscaler, and the evidence
the control benchmark asserts on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["ControlDecision", "ControlPolicy"]


@dataclass(frozen=True)
class ControlPolicy:
    """Guardrails of the observe -> diagnose -> remediate loop.

    The defaults encode the standard hysteresis recipe: act only on
    *sustained* pressure (``sustain_ticks`` consecutive windows), leave
    a dead band between the scale-out and scale-in thresholds, and
    enforce a cooldown after every action so the loop observes the
    effect of one remediation before considering the next.
    """

    #: Reconciliation cadence (also the telemetry sampling window).
    tick_s: float = 0.25
    #: Mean binding-resource utilisation that demands scale-out.
    scale_out_pressure: float = 0.85
    #: Mean binding-resource utilisation below which scale-in is safe.
    scale_in_pressure: float = 0.5
    #: Consecutive ticks a threshold must hold before acting.
    sustain_ticks: int = 2
    #: Quiet period after an action completes (hysteresis).
    cooldown_s: float = 1.0
    #: Fleet-size floor and ceiling the controller may move between.
    min_nodes: int = 1
    max_nodes: int = 16
    #: Detection-to-decision delay before replacing a crashed node.
    replace_grace_s: float = 0.5
    #: Lead time to bring up a fresh (or replacement) node.
    provision_delay_s: float = 0.25
    #: Secondary scale-out trigger: sustained admission-shed rate
    #: (ops/s) — catches overload the utilisation means understate,
    #: e.g. one hot shard shedding while the fleet mean looks healthy.
    shed_rate_per_s: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.tick_s < math.inf:
            raise ValueError("tick_s must be positive and finite")
        if self.sustain_ticks < 1:
            raise ValueError("sustain_ticks must be >= 1")
        if not 0.0 < self.scale_in_pressure < self.scale_out_pressure <= 1.0:
            raise ValueError(
                "need 0 < scale_in_pressure < scale_out_pressure <= 1 "
                f"(got {self.scale_in_pressure}, {self.scale_out_pressure})")
        if self.min_nodes < 1:
            raise ValueError("min_nodes must be >= 1")
        if self.max_nodes < self.min_nodes:
            raise ValueError("max_nodes must be >= min_nodes")
        for name in ("cooldown_s", "replace_grace_s", "provision_delay_s"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be >= 0 and finite, got {value}")
        shed = self.shed_rate_per_s
        if shed is not None and not 0 < shed < math.inf:
            raise ValueError(
                f"shed_rate_per_s must be positive and finite, got {shed}")

    def to_dict(self) -> dict:
        return {
            "tick_s": self.tick_s,
            "scale_out_pressure": self.scale_out_pressure,
            "scale_in_pressure": self.scale_in_pressure,
            "sustain_ticks": self.sustain_ticks,
            "cooldown_s": self.cooldown_s,
            "min_nodes": self.min_nodes,
            "max_nodes": self.max_nodes,
            "replace_grace_s": self.replace_grace_s,
            "provision_delay_s": self.provision_delay_s,
            "shed_rate_per_s": self.shed_rate_per_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ControlPolicy":
        return cls(**payload)


@dataclass(frozen=True)
class ControlDecision:
    """One entry of the controller's decision log."""

    #: Simulated time the decision was taken.
    t: float
    #: ``scale_out`` | ``scale_in`` | ``replace``.
    action: str
    #: The node acted on (the new node's name for scale-out).
    node: str
    #: Human-readable diagnosis that justified the action.
    reason: str
    #: Mean binding-resource pressure observed in the deciding window.
    pressure: float
    #: The binding resource at decision time.
    bottleneck: str
    #: Active fleet size *after* the action takes effect.
    n_active: int

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "action": self.action,
            "node": self.node,
            "reason": self.reason,
            "pressure": self.pressure,
            "bottleneck": self.bottleneck,
            "n_active": self.n_active,
        }
