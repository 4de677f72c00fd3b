"""Reversing a row of pebbles when each may hop up to two steps.

Squaring a path adds the distance-2 chords.  On the squared path the full
reversal becomes reachable, and the recursive builder emits an explicit
move list whose length follows the recurrence L(n) = 2 L(n-1) + L(n-2) + 1.

The certificate is a self-contained text file: board and pebble
descriptors, start and end arrangements, and the moves.  Anyone can replay
it without trusting the builder.
"""

import os
import tempfile

from pebblex import (
    format_certificate,
    parse_certificate,
    seq_A,
    sequence_length,
)

if __name__ == "__main__":
    print("move counts:")
    for n in range(1, 13):
        print(f"   n={n:>2}: {sequence_length(n):>6}")
    print()

    cert = seq_A(7)
    print(f"n=7: {len(cert.moves)} moves carry {cert.start} to {cert.end}")
    print(f"first ten moves: {cert.moves[:10]}")
    print()

    text = format_certificate(seq_A(5))
    with tempfile.NamedTemporaryFile("w", suffix=".cert", delete=False) as fh:
        fh.write(text)
        path = fh.name
    try:
        print(f"wrote a 5-pebble certificate to {path}:")
        print(text)
        with open(path) as fh:
            back = parse_certificate(fh.read()).validate()
    finally:
        os.remove(path)
    print(f"replayed from disk: end = {back.end}")

    # a shortest sequence found by search, for contrast
    print(f"\nsearch finds {len(seq_A(5, via='bfs').moves)} moves at n=5; "
          f"the recursion uses {sequence_length(5)}")
