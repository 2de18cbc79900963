"""Generated specialized kernels vs the array-driven interpreter.

Both take the same steps, to roundoff; the generated modules inline every
nonzero coefficient as a named scalar constant and fuse the stage arithmetic
per component, which pays off at the small system sizes of this suite.  Each
kernel is timed by `rkforge.cli.kernel_seconds`, as `forge bench` times it:
through `fixed_integrate(..., last=True)`, the drivers' loop.

Run:  python demos/kernel_bench.py
"""
from rkforge import shipped_methods
from rkforge.cli import kernel_seconds
from rkforge.generated import METHODS
from rkforge.stepcontrol import interpreted_kernel

steps = 20000

print(f"{steps} fixed Brusselator steps per kernel")
print(f"{'method':>12} {'generated/s':>12} {'generic/s':>12} {'ratio':>6}")
for tableau in shipped_methods():
    a = steps / kernel_seconds(METHODS[tableau.name].KERNEL, steps)
    b = steps / kernel_seconds(interpreted_kernel(tableau), steps)
    print(f"{tableau.name:>12} {a:>12.0f} {b:>12.0f} {a / b:>6.2f}")
