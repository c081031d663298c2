"""Single-scale and multiscale block-mean message passing on a feature map.

Shows the operator's defining properties numerically: the added message
is constant inside each block, channel sums scale by exactly (1 + alpha),
the map is linear and self-adjoint, and the multiscale cascade is just a
chain of single-scale passes over coarser-to-finer partitions.
"""

import numpy as np

from spxkit import (
    MspConfig,
    block_means,
    cascade_forward,
    mean_map,
    message_pass,
    random_partition,
)

rng = np.random.default_rng(7)
alpha = 0.1

# ---- single scale on a random feature map --------------------------------
c, h, w = 4, 16, 16
x = rng.normal(size=(c, h, w))
part = random_partition(h, w, blocks=9, rng=rng)
print(f"feature map {x.shape}, partition with {part.num_blocks} blocks")

out = message_pass(x, part, alpha)
msg = mean_map(x, part)
print("\nper-block channel means (channel 0):")
print(np.round(block_means(x, part)[0], 3))

spread_inside = max(
    np.ptp(msg[ch, part.labels == k])
    for k in range(part.num_blocks)
    for ch in range(c)
)
print(f"message spread inside blocks (should be 0): {spread_inside:.1e}")

for ch in range(c):
    ratio = out[ch].sum() / x[ch].sum()
    print(f"channel {ch}: sum ratio after pass = {ratio:.12f} (expect {1 + alpha})")

y = rng.normal(size=x.shape)
lhs = (message_pass(x, part, alpha) * y).sum()
rhs = (x * message_pass(y, part, alpha)).sum()
print(f"self-adjointness gap: {abs(lhs - rhs):.2e}")

# ---- multiscale cascade guided by an image -------------------------------
img = np.zeros((64, 64, 3), np.uint8)
img[:, :32] = (200, 60, 60)
img[:, 32:] = (60, 60, 200)
features = rng.normal(size=(3, 32, 32))  # half the image resolution

config = MspConfig(alpha=alpha, scales=(4, 16))
smoothed, trace = cascade_forward(features, img, config)
print("\ncascade stages (requested scale -> blocks at feature resolution):")
for scale, p in trace.stages:
    print(f"  scale {scale:3d} -> {p.num_blocks} blocks on {p.labels.shape}")
print(f"output shape {smoothed.shape}, input untouched: "
      f"{not np.shares_memory(smoothed, features)}")
