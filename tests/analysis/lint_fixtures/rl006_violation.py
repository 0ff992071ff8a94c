# lint-path: heuristics/except_fixture.py
"""RL006 violation fixture: handlers that catch interrupts and swallow them."""


def run_members(solvers, problem):
    results = []
    for solver in solvers:
        try:
            results.append(solver.solve(problem))
        except BaseException:  # expect: RL006
            results.append(None)
    return results


def swallow_everything(action):
    try:
        return action()
    except:  # expect: RL006
        return None
