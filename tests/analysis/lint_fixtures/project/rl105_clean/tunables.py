# lint-path: experiments/tunables.py
"""RL105 clean twin: both axes are consumed — one directly, one through an
accessor on the spec itself (reads outside the serialisation boilerplate
count)."""
from dataclasses import dataclass

from repro.experiments.spec import _reject_unknown


@dataclass(frozen=True)
class TuneSpec:
    rounds: int = 3
    shadow_mode: bool = False

    _FIELDS = ("rounds", "shadow_mode")

    def effective_rounds(self):
        return 0 if self.shadow_mode else self.rounds

    def as_dict(self):
        return {"rounds": self.rounds, "shadow_mode": self.shadow_mode}

    @classmethod
    def from_dict(cls, data):
        _reject_unknown(data, cls._FIELDS, "tune spec")
        return cls(rounds=int(data["rounds"]), shadow_mode=bool(data["shadow_mode"]))
