# lint-path: heuristics/pragma_fixture.py
"""Pragma fixture: a justified pragma silences exactly one rule on one line."""


def fallback(action):
    try:
        return action()
    except BaseException:  # repro-lint: disable=RL006 -- demo fallback; caller re-raises interrupts
        return None
