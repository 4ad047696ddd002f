"""What several test modules share: the finite-type exchange data, the
shipped fixture files, and the call recorder the pinned work counts read."""

import json
import os

from cluster_forge.seeds import ExchangeData, seed_from_json

A2 = ExchangeData(((0, 1), (-1, 0)), 2)
B2 = ExchangeData(((0, -1), (2, 0)), 2, (2, 1))
G2 = ExchangeData(((0, -1), (3, 0)), 2, (3, 1))
A3 = ExchangeData(((0, 1, 0), (-1, 0, 1), (0, -1, 0)), 3)
B3 = ExchangeData(((0, 1, 0), (-1, 0, 1), (0, -2, 0)), 3, (2, 2, 1))
C3 = ExchangeData(((0, 1, 0), (-1, 0, 2), (0, -1, 0)), 3, (1, 1, 2))
A4 = ExchangeData(((0, 1, 0, 0), (-1, 0, 1, 0), (0, -1, 0, 1),
                   (0, 0, -1, 0)), 4)
D4 = ExchangeData(((0, 1, 0, 0), (-1, 0, 1, 1), (0, -1, 0, 0),
                   (0, -1, 0, 0)), 4)

#: The acyclic triangle 1 -> 2 -> 3, 1 -> 3: of infinite type, though its
#: principal part on directions 1 and 2 is A2.
ACYCLIC_TRIANGLE = ((0, 1, 1), (-1, 0, 1), (-1, -1, 0))

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src",
                        "cluster_forge", "fixtures")


def fixture(name):
    """The path of the shipped seed file ``name``."""
    return os.path.join(FIXTURES, name)


def fixture_exchange(name):
    """The exchange data of the shipped seed file ``name``."""
    with open(fixture(name), encoding="utf-8") as fh:
        return seed_from_json(json.load(fh))[0]


def record_calls(monkeypatch, name, *owners):
    """Send ``name`` on each of ``owners``, classes or modules that all bind
    the one function under it, through one recorder, and return the list
    the recorder fills with an ``(args, raised)`` pair per call when it
    ends: its positional arguments, and the exception it raised or None.
    A module that binds the function but is not listed keeps calling it
    unrecorded."""
    real = getattr(owners[0], name)
    calls = []

    def recorded(*args, **kwargs):
        try:
            result = real(*args, **kwargs)
        except Exception as exc:
            calls.append((args, exc))
            raise
        calls.append((args, None))
        return result

    for owner in owners:
        assert getattr(owner, name) is real, f"{owner.__name__}.{name}"
        monkeypatch.setattr(owner, name, recorded)
    return calls
