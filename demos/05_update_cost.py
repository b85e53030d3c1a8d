"""What the sampling estimators buy you per update, predicted and timed.

An exact likelihood update scores every word in the vocabulary; a
sampling update scores the observed word plus k noise words. The
predicted ratio below counts those score computations. The timed half
measures one real update at a mid-sized shape, with the noise samples
drawn per example and, alternatively, shared across the minibatch.
"""

import numpy as np

from ncelm.diagnostics import benchmark_update
from ncelm.evaluation import predicted_speedup
from ncelm.model import init_params
from ncelm.noise import uniform

# The headline predictions at vocabulary 10,000, dimension 100, two
# context positions, 25 noise samples.
full = predicted_speedup(2, 100, 10_000, 25, "full")
diag = predicted_speedup(2, 100, 10_000, 25, "diagonal")
print(f"predicted update-cost ratio, full matrices:     {full:.1f}x")
print(f"predicted update-cost ratio, diagonal matrices: {diag:.1f}x")

# Now measure. Smaller vocabulary than the headline shape so the demo
# stays quick; the ratio scales with V.
V, D, B = 4000, 64, 500
params = init_params(V, D, 2, seed=0)
rng = np.random.default_rng(0)
batch = (rng.integers(0, V, size=(B, 2)), rng.integers(0, V, size=B))
noise = uniform(V)

t_ml = benchmark_update(params, "ml", 25, batch)
print(f"\nmeasured at V={V}, d={D}, minibatch {B}:")
print(f"  ml update:              {1e3 * t_ml:7.2f} ms")
for k in (1, 25, 100):
    t_each = benchmark_update(params, "nce", k, batch, noise)
    t_shared = benchmark_update(
        params, "nce", k, batch, noise, share_noise_samples=True
    )
    print(f"  nce k={k:<3} update:        {1e3 * t_each:7.2f} ms per-example draws,"
          f" {1e3 * t_shared:7.2f} ms shared draws")

print(f"\npredicted ratio at this shape: "
      f"{predicted_speedup(2, D, V, 25, 'full'):.1f}x")
print("sharing one set of noise samples across the minibatch turns the")
print("noise work into a few dense products over k rows, which is why")
print("its update time barely moves with k")
