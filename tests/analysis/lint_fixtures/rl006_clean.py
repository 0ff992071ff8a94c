# lint-path: heuristics/except_fixture.py
"""RL006 clean twin: interrupts propagate past every handler."""


def run_members(solvers, problem):
    results = []
    for solver in solvers:
        try:
            results.append(solver.solve(problem))
        except Exception:  # KeyboardInterrupt/SystemExit are not Exceptions
            results.append(None)
    return results


def swallow_failures(action):
    try:
        return action()
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException:
        return None


def annotate(action, errors):
    try:
        return action()
    except BaseException as exc:
        errors.append(str(exc))
        raise
