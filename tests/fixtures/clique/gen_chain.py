#!/usr/bin/env python3
"""Print a seeded chain design in BDL: `python3 gen_chain.py OPS SEED`.

The shape follows the benchmark's chain template (and chain400.bdl next
to this file): eight 16-bit inputs, two outputs, and OPS chained
assignments t_k = t_{k-1} OP y, where y is a recent t (60%), an input
(25%) or an odd 8-bit constant (15%); OP is + 30%, - 20%, * 15%, & 10%,
| 10%, ^ 15%.
"""
import random
import sys


def main():
    n, seed = int(sys.argv[1]), int(sys.argv[2])
    rng = random.Random(seed)
    inputs = [f"i{i}" for i in range(8)]

    def pick_op():
        r = rng.randrange(100)
        for bound, op in ((30, "+"), (50, "-"), (65, "*"), (75, "&"),
                          (85, "|")):
            if r < bound:
                return op
        return "^"

    out = [f"# Seeded ({seed}) {n}-op chain for the default-config scaling "
           "guard in ci.sh:",
           f"#   python3 tests/fixtures/clique/gen_chain.py {n} {seed}",
           f"proc chain{n}(" + ", ".join(f"in {i}: uint<16>" for i in inputs)
           + ", out o0: uint<16>, out o1: uint<16>) {"]
    out += [f"  var t{k}: uint<16>;" for k in range(n)]
    out.append("  t0 = i0 + i1;")
    for k in range(1, n):
        r = rng.randrange(100)
        if r < 60 and k >= 2:
            lo = max(0, k - 12)
            y = f"t{lo + rng.randrange(k - 1 - lo)}"
        elif r < 85:
            y = rng.choice(inputs)
        else:
            y = str(3 + 2 * rng.randrange(126))
        out.append(f"  t{k} = t{k - 1} {pick_op()} {y};")
    out += [f"  o0 = t{n - 1};", f"  o1 = t{n // 2};", "}"]
    print("\n".join(out))


if __name__ == "__main__":
    main()
