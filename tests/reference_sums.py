"""The penalty partial sums of a trace, written out with the penalty specs'
own loops: the reference that the sums the decoders carry from node to node
are held to, bit for bit.

Per regularizer of the objective, in its order: greedy, square and max
their value on the trace (0.0, 0.0 and -inf on the empty one); local its
sum of squared adjacent differences, anchored at zero, and its last
surprisal (0.0 on the empty trace); variance Welford's sum of squared
deviations and its mean (0.0 and 0.0 on the empty trace).
"""

import math

from regdecode import RegularizerKind, r_greedy, r_max, r_square


def spec_sums(objective, trace, minima) -> tuple:
    sums = []
    for kind, _ in objective.regularizers:
        if kind is RegularizerKind.GREEDY:
            sums.append(r_greedy(trace, minima))
        elif kind is RegularizerKind.SQUARE:
            sums.append(r_square(trace) if trace else 0.0)
        elif kind is RegularizerKind.MAX:
            sums.append(r_max(trace) if trace else -math.inf)
        elif kind is RegularizerKind.VARIANCE:
            m2 = mean = 0.0
            for i, u in enumerate(trace, 1):
                d = u - mean
                mean += d / i
                m2 += d * (u - mean)
            sums += [m2, mean]
        else:
            total = prev = 0.0
            for u in trace:
                d = u - prev
                total += d * d
                prev = u
            sums += [total, prev]
    return tuple(sums)
