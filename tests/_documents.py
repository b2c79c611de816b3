"""Documents with one field, row or element replaced by each JSON type.

A strict reader takes only the JSON type each position of its document
holds; the reader tests walk every position through every type here.
"""
import copy
import json

from fractalcensus.kernel import MalformedDocument

# one value of each JSON type, plus the bool and the whole float that int()
# used to take for an integer
JSON_VALUES = (None, True, False, 1.5, 2.0, "1", [], {})


def misfits_read(reader, doc: dict, positions: dict) -> list:
    """Every (position, value, outcome) whose document ``reader`` did not
    refuse with MalformedDocument.

    ``positions`` maps each key path into ``doc`` to the tuple of JSON
    types the position takes; each value of another type is put there in
    turn, the rest of the document left valid.
    """
    reader(json.dumps(doc))  # the untouched document reads
    missed = []
    for path, types in positions.items():
        for value in JSON_VALUES:
            if type(value) in types:
                continue
            bad = copy.deepcopy(doc)
            *steps, last = path
            spot = bad
            for step in steps:
                spot = spot[step]
            spot[last] = value
            try:
                outcome = reader(json.dumps(bad))
            except MalformedDocument:
                continue
            except Exception as exc:  # any other error is a miss too
                outcome = exc
            missed.append((path, value, repr(outcome)[:80]))
    return missed
