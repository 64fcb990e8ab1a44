"""Per-layer probes, timed from outside around public calls into a layer.

They run in every traced run, on fixed shapes that do not depend on the
workload, so a layer's figure means the same on every workload:

* ``nn``: forward and backward of ``convnet_small``'s layers in training
  mode at the sweep's batch size (32), on the SVHN input shape.
* ``core``: ``FixedPointQuantizer.quantize`` on a conv activation,
  calibration and quantized evaluation.
* ``kernels`` / ``fused``: ``FrozenQuantizedNetwork.forward`` at batch 1
  and 32 on both backends, and per-kind sums of ``Backend.conv / dense /
  pool / act`` over the units of convnet_small at batch 32, with
  operations and bytes computed from tensor sizes.
* ``host``: a roofline calibrated on this machine (f32 GEMM and copy).
* ``hw``: an uncached energy evaluation and ``hw.sim`` of the paper's
  ``convnet`` at every precision.

Each timing is the median of several repetitions.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np
from repro import backends
from repro.core import PAPER_PRECISIONS, FixedPointQuantizer, QuantizedNetwork
from repro.data import load_dataset
from repro.hw import Accelerator, EnergyModel, simulate
from repro.nn.activations import ReLU
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense
from repro.nn.im2col import col2im, conv_output_size
from repro.nn.pooling import MaxPool2D
from repro.obs.metrics import get_metrics
from repro.zoo import build_network, network_info

from common import median, now
from spans import Recorder

BATCH = 32


def _time(fn: Callable[[], object], reps: int) -> float:
    """Median seconds of ``reps`` calls (after one warm-up call)."""
    fn()
    samples = []
    for _ in range(reps):
        t0 = now()
        fn()
        samples.append(now() - t0)
    return median(samples)


def _conv_macs(layer: Conv2D, x_shape) -> int:
    n, _, h, w = x_shape
    out_h = conv_output_size(h, layer.kernel_size, layer.stride, layer.padding)
    out_w = conv_output_size(w, layer.kernel_size, layer.stride, layer.padding)
    return (n * layer.out_channels * out_h * out_w
            * layer.in_channels * layer.kernel_size ** 2)


def nn_probe(rec: Recorder, reps: int = 15) -> Dict[str, float]:
    rng = np.random.default_rng(0)
    network = build_network("convnet_small", seed=0)
    network.train_mode()
    x = rng.standard_normal((BATCH,) + network_info("convnet_small").input_shape,
                            dtype=np.float32)
    inputs = []
    for layer in network.layers:
        inputs.append(x)
        x = layer.forward(x)
    grads = []
    grad = rng.standard_normal(x.shape, dtype=np.float32)
    for layer in reversed(network.layers):
        grads.append(grad)
        grad = layer.backward(grad)
    grads.reverse()

    totals = {"conv_fwd": 0.0, "conv_bwd": 0.0, "maxpool_fwd": 0.0,
              "maxpool_bwd": 0.0, "dense_bwd": 0.0, "col2im": 0.0}
    conv_macs = 0
    with rec.span("nn.probe"):
        for layer, x_in, g_out in zip(network.layers, inputs, grads):
            if isinstance(layer, Conv2D):
                totals["conv_fwd"] += _time(lambda: layer.forward(x_in), reps)
                totals["conv_bwd"] += _time(lambda: layer.backward(g_out), reps)
                conv_macs += _conv_macs(layer, x_in.shape)
                cols = layer.weight.data.reshape(layer.out_channels, -1).T @ \
                    g_out.transpose(1, 2, 3, 0).reshape(layer.out_channels, -1)
                totals["col2im"] += _time(
                    lambda: col2im(cols, x_in.shape, layer.kernel_size,
                                   layer.stride, layer.padding), reps)
            elif isinstance(layer, MaxPool2D):
                totals["maxpool_fwd"] += _time(lambda: layer.forward(x_in), reps)
                totals["maxpool_bwd"] += _time(lambda: layer.backward(g_out), reps)
            elif isinstance(layer, Dense):
                layer.forward(x_in)
                totals["dense_bwd"] += _time(lambda: layer.backward(g_out), reps)
    out = {f"nn.{key}_ms": value * 1e3 for key, value in totals.items()}
    # backward = weight-gradient GEMM + input-gradient GEMM, 2 flops per MAC
    out["nn.conv_bwd_gflops"] = 4.0 * conv_macs / totals["conv_bwd"] / 1e9
    return out


def core_probe(rec: Recorder, reps: int = 9) -> Dict[str, float]:
    split = load_dataset("svhn", n_train=128, n_test=560, seed=0)
    network = build_network("convnet_small", seed=0)
    activation = network.layers[0].forward(split.train.images[:BATCH])
    quantizer = FixedPointQuantizer(8)
    with rec.span("core.probe"):
        quantize_s = _time(lambda: quantizer.quantize(activation), reps)
        qnet = QuantizedNetwork(network, "fixed8")
        calibrate_s = _time(lambda: qnet.calibrate(split.train.images), 3)
        images, labels = split.test.images, split.test.labels
        eval_s = _time(lambda: qnet.evaluate(images, labels), 3)
    return {
        "core.quantize_ns_per_elem": quantize_s / activation.size * 1e9,
        "core.calibrate_s": calibrate_s,
        "core.eval_img_s": images.shape[0] / eval_s,
    }


def kernels_probe(rec: Recorder) -> Dict[str, float]:
    out: Dict[str, float] = {}
    fallbacks = get_metrics().counter("kernels.fused.fallback_units")
    before = fallbacks.value
    frozen = {}
    with rec.span("kernels.probe"):
        for net in ("lenet_small", "convnet_small"):
            info = network_info(net)
            images = load_dataset(info.dataset, n_train=BATCH, n_test=32,
                                  seed=0).train.images[:BATCH]
            for backend in ("reference", "fused"):
                qnet = QuantizedNetwork(build_network(net, seed=0), "fixed8")
                qnet.calibrate(images)
                model = qnet.freeze(backend=backend)
                frozen[(backend, net)] = (model, images)
                out[f"kernels.{backend}.{net}.b1_ms"] = 1e3 * _time(
                    lambda: model.forward(images[:1]), 200)
                out[f"kernels.{backend}.{net}.b32_ms"] = 1e3 * _time(
                    lambda: model.forward(images), 40)
        out.update(_fused_kinds(*frozen[("fused", "convnet_small")]))
    out["kernels.fallback_units"] = fallbacks.value - before
    return out


def _fused_kinds(model, images: np.ndarray, reps: int = 25) -> Dict[str, float]:
    """Per-kind sums over the units of one frozen pipeline at batch 32."""
    fused = backends.get("fused")
    sums = {"conv": 0.0, "act": 0.0, "pool": 0.0, "dense": 0.0}
    conv_macs = conv_bytes = 0
    x = images
    for layer in model.pipeline.layers:
        if type(layer) is Conv2D:
            sums["conv"] += _time(lambda: fused.conv(layer, x), reps)
            y = layer.forward(x)
            conv_macs += _conv_macs(layer, x.shape)
            conv_bytes += 4 * (x.size + layer.weight.data.size + y.size)
        elif type(layer) is Dense:
            sums["dense"] += _time(lambda: fused.dense(layer, x), reps)
        elif type(layer) is MaxPool2D:
            sums["pool"] += _time(lambda: fused.pool(layer, x), reps)
        elif type(layer) is ReLU:
            sums["act"] += _time(lambda: fused.act(layer, x), reps)
        x = layer.forward(x)
    out = {f"fused.{kind}_ms": seconds * 1e3 for kind, seconds in sums.items()}
    out["fused.conv_gflops"] = 2.0 * conv_macs / sums["conv"] / 1e9
    out["fused.conv_gbs"] = conv_bytes / sums["conv"] / 1e9
    return out


def host_probe(rec: Recorder) -> Dict[str, float]:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512), dtype=np.float32)
    b = rng.standard_normal((512, 512), dtype=np.float32)
    src = np.ones(4 * 1024 * 1024, dtype=np.float32)   # 16 MiB
    dst = np.empty_like(src)
    with rec.span("host.probe"):
        gemm_s = min(_time(lambda: a @ b, 5) for _ in range(3))
        copy_s = min(_time(lambda: np.copyto(dst, src), 5) for _ in range(3))
    return {
        "host.gemm_gflops": 2.0 * 512 ** 3 / gemm_s / 1e9,
        # bytes read plus bytes written
        "host.memcpy_gbs": 2.0 * src.nbytes / copy_s / 1e9,
    }


def hw_probe(rec: Recorder) -> Dict[str, float]:
    network = build_network("convnet", seed=0)
    shape = network_info("convnet").input_shape
    with rec.span("hw.probe"):
        evals = [_time(lambda: EnergyModel().evaluate(network, shape, spec), 5)
                 for spec in PAPER_PRECISIONS]
        t0 = now()
        for spec in PAPER_PRECISIONS:
            simulate(network, shape, Accelerator(spec))
        sim_s = now() - t0
    return {"hw.energy_eval_us": 1e6 * float(np.mean(evals)), "hw.sim_s": sim_s}


def all_probes(rec: Recorder) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for probe in (nn_probe, core_probe, kernels_probe, host_probe, hw_probe):
        out.update(probe(rec))
    return out
