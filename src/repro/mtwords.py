"""The 32-bit word stream behind ``random.Random``, pulled in bulk.

Every draw of CPython's Mersenne Twister consumes whole 32-bit words
from one stream: ``getrandbits(k)`` for ``k <= 32`` keeps the top ``k``
bits of the next word, ``random()`` builds a double from the next two,
and ``randrange``/``randint``/``sample`` draw through ``_randbelow(n)``,
which repeats ``getrandbits(n.bit_length())`` until the value is below
``n``.  A hot loop that replays that consumption over words pulled here
produces the very values the calls would, without a method call per
draw.  The SECDED lane profile (:mod:`repro.ecc.miscorrection`)
replays this way.  The perfsim traces (:mod:`repro.perfsim.trace`)
replay no calls: each op takes a fixed 13 words of the stream, so
their bulk path reads the words straight into numpy.
"""

from __future__ import annotations

import random
import struct
from typing import Tuple

__all__ = ["pull_words"]


def pull_words(rng: random.Random, count: int) -> Tuple[int, ...]:
    """The next ``count`` 32-bit words of ``rng``'s stream, in draw order.

    ``getrandbits(32 * count)`` draws ``count`` words and places the
    first one drawn in the least significant 32 bits, the next above
    it, on every platform; read back little-endian, its bytes are the
    words in the order they were drawn.  ``rng`` ends where ``count``
    calls of ``getrandbits(32)`` would leave it.
    """
    return struct.unpack(
        f"<{count}I", rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    )
