# lint-path: heuristics/pragma_fixture.py
"""Pragma fixture: a pragma without justification does not suppress."""


def fallback(action):
    try:
        return action()
    except BaseException:  # repro-lint: disable=RL006
        return None
