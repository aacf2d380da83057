import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catagg import tensor as T
from catagg.errors import ArgumentError, DimensionError, NumericError
from catagg.flow import (
    FlowField,
    KeypointSet,
    aepe,
    grid_to_pixel,
    hard_argmax_flow,
    pck,
    pixel_to_grid,
    read_keypoints,
    _sample_bilinear,
    soft_argmax_flow,
    transfer_keypoints,
    write_keypoints,
)
from catagg.gradcheck import finite_diff
from catagg.tensor import Tensor

from oracles import softargmax_flow_oracle


def _ff(arr):
    return FlowField(Tensor(np.asarray(arr, dtype=np.float64)))


def test_uniform_scores_center_of_mass():
    c = Tensor(np.zeros((2, 2, 2, 2), np.float64))
    f = soft_argmax_flow(c, beta=1.0)
    # every target equally likely on a 2x2 grid: expectation (0.5, 0.5)
    np.testing.assert_allclose(f.grid.data[0, 0], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(f.grid.data[1, 1], [-0.5, -0.5], atol=1e-12)


def test_saturated_peak_points_at_peak():
    c = np.zeros((9, 9), np.float64)
    c[2, 7] = 50.0
    f = soft_argmax_flow(Tensor(c.reshape(3, 3, 3, 3)), beta=20.0)
    # token 2 = (x=2, y=0); peak token 7 = (x=1, y=2)
    np.testing.assert_allclose(f.grid.data[0, 2], [1 - 2, 2 - 0], atol=1e-6)


def test_matches_probability_centroid_oracle():
    rng = np.random.default_rng(0)
    c = rng.normal(size=(9, 9))
    f = soft_argmax_flow(Tensor(c.reshape(3, 3, 3, 3)), beta=1.0)
    want = softargmax_flow_oracle(c, 3, 3, 1.0)
    assert np.abs(f.grid.data.reshape(9, 2) - want).max() < 1e-6


def test_four_d_volume_accepted():
    rng = np.random.default_rng(1)
    vol = rng.normal(size=(3, 4, 3, 4))
    f4 = soft_argmax_flow(Tensor(vol), beta=2.0)
    want = softargmax_flow_oracle(vol.reshape(12, 12), 3, 4, 2.0)
    assert f4.resolution == (3, 4)
    assert np.abs(f4.grid.data.reshape(12, 2) - want).max() < 1e-9
    with pytest.raises(DimensionError):
        soft_argmax_flow(Tensor(rng.normal(size=(3, 4, 4, 3))), beta=2.0)


def test_rank2_scores_rejected():
    for shape in ((16, 16), (12, 12), (4, 6)):
        with pytest.raises(DimensionError):
            soft_argmax_flow(Tensor(np.zeros(shape)), beta=1.0)
        with pytest.raises(DimensionError):
            hard_argmax_flow(Tensor(np.zeros(shape)))


def test_nonfinite_scores_numeric_error():
    c = np.zeros((4, 4))
    c[1, 2] = np.nan
    with pytest.raises(NumericError):
        soft_argmax_flow(Tensor(c.reshape(2, 2, 2, 2)), beta=1.0)
    with pytest.raises(ArgumentError):
        soft_argmax_flow(Tensor(np.zeros((2, 2, 2, 2))), beta=0.0)


def test_outputs_inside_coordinate_hull():
    rng = np.random.default_rng(2)
    for _ in range(5):
        c = rng.normal(scale=3.0, size=(16, 16))
        f = soft_argmax_flow(Tensor(c.reshape(4, 4, 4, 4)), beta=5.0)
        pos = np.stack(np.meshgrid(np.arange(4), np.arange(4), indexing="ij"),
                       axis=-1)[..., ::-1]  # (x, y)
        target = f.grid.data + pos
        assert target.min() >= 0.0 - 1e-12
        assert target.max() <= 3.0 + 1e-12


def test_beta_error_monotone_toward_hard_argmax():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(16, 16))
    hard = hard_argmax_flow(Tensor(c.reshape(4, 4, 4, 4))).grid.data
    top2 = np.sort(c, axis=1)[:, -2:]
    gap = (top2[:, 1] - top2[:, 0]).min()
    beta_sat = 45.0 / gap  # e^(-45) leaves no runner-up mass
    betas = [beta_sat / 4 ** k for k in range(6)][::-1]
    errs = []
    for beta in betas:
        soft = soft_argmax_flow(Tensor(c.reshape(4, 4, 4, 4)), beta=beta).grid.data
        errs.append(np.abs(soft - hard).max())
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-6


def test_soft_argmax_differentiable():
    rng = np.random.default_rng(4)
    c = Tensor(rng.normal(size=(9, 9)).reshape(3, 3, 3, 3), requires_grad=True)
    w = rng.normal(size=(3, 3, 2))
    loss = T.tsum(T.mul(soft_argmax_flow(c, beta=2.0).grid, Tensor(w)))
    T.backward(loss)
    fd = finite_diff(
        lambda: T.tsum(T.mul(soft_argmax_flow(c, beta=2.0).grid,
                             Tensor(w))).item(), c, 1e-5)
    rel = np.abs(c.grad - fd) / np.maximum(1.0, np.abs(fd))
    assert rel.max() < 1e-4


# ---------------------------------------------------------------------------
# keypoint transfer


def test_zero_flow_keeps_keypoints():
    f = _ff(np.zeros((16, 16, 2)))
    k = KeypointSet(np.array([[10.0, 20.0], [200.0, 100.0]]), (256, 256))
    out = transfer_keypoints(f, k)
    np.testing.assert_allclose(out.points, k.points, atol=1e-9)


def test_constant_flow_shifts_by_cell_size():
    f = _ff(np.concatenate([np.ones((16, 16, 1)), np.zeros((16, 16, 1))], -1))
    k = KeypointSet(np.array([[32.0, 64.0], [100.5, 17.25]]), (256, 256))
    out = transfer_keypoints(f, k)
    np.testing.assert_allclose(out.points[:, 0], k.points[:, 0] + 16.0, atol=1e-9)
    np.testing.assert_allclose(out.points[:, 1], k.points[:, 1], atol=1e-9)


def test_transfer_matches_bilinear_oracle():
    rng = np.random.default_rng(5)
    field = rng.normal(scale=0.5, size=(8, 8, 2))
    k = KeypointSet(rng.uniform(20, 230, size=(40, 2)), (256, 256))
    out = transfer_keypoints(_ff(field), k)

    for (x, y), (ox, oy) in zip(k.points, out.points):
        gx = x / 256 * 8 - 0.5
        gy = y / 256 * 8 - 0.5
        cx, cy = np.clip([gx, gy], 0.0, 7.0)
        x0, y0 = int(np.floor(cx)), int(np.floor(cy))
        x1, y1 = min(x0 + 1, 7), min(y0 + 1, 7)
        fx, fy = cx - x0, cy - y0
        d = (field[y0, x0] * (1 - fx) * (1 - fy) + field[y0, x1] * fx * (1 - fy)
             + field[y1, x0] * (1 - fx) * fy + field[y1, x1] * fx * fy)
        assert abs(ox - ((gx + d[0] + 0.5) * 256 / 8)) < 1e-5
        assert abs(oy - ((gy + d[1] + 0.5) * 256 / 8)) < 1e-5


def test_sample_bilinear_matches_scalar_reference_bitwise():
    rng = np.random.default_rng(7)
    h, w, c = 5, 7, 3
    field = rng.normal(size=(h, w, c))
    # inside, on the last row and column, and clamped beyond every border
    gx = np.concatenate([rng.uniform(-3, w + 2, 60), [0.0, w - 1.0, -0.5, w]])
    gy = np.concatenate([rng.uniform(-3, h + 2, 60), [h - 1.0, 0.0, h, -0.5]])
    out = _sample_bilinear(field, gx, gy)
    for x, y, row in zip(gx, gy, out):
        cx, cy = min(max(float(x), 0.0), w - 1.0), min(max(float(y), 0.0), h - 1.0)
        x0, y0 = int(cx // 1), int(cy // 1)
        x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
        fx, fy = cx - x0, cy - y0
        for ch in range(c):
            f = lambda yy, xx: float(field[yy, xx, ch])
            top = f(y0, x0) * (1 - fx) + f(y0, x1) * fx
            bot = f(y1, x0) * (1 - fx) + f(y1, x1) * fx
            assert row[ch] == top * (1 - fy) + bot * fy


def test_transfer_clamps_to_image():
    f = _ff(np.full((4, 4, 2), 10.0))
    k = KeypointSet(np.array([[120.0, 120.0]]), (128, 128))
    out = transfer_keypoints(f, k)
    assert (out.points >= 0).all()
    assert (out.points < 128).all()


def test_keypoints_outside_image_rejected():
    with pytest.raises(ArgumentError):
        KeypointSet(np.array([[256.0, 10.0]]), (256, 256))
    with pytest.raises(ArgumentError):
        KeypointSet(np.array([[-0.1, 10.0]]), (256, 256))


def test_pixel_grid_roundtrip():
    px = np.array([0.0, 8.0, 100.0, 255.0])
    g = pixel_to_grid(px, 256, 16)
    np.testing.assert_allclose(grid_to_pixel(g, 256, 16), px, atol=1e-12)
    np.testing.assert_allclose(grid_to_pixel(np.array([0.0]), 256, 16), [8.0])


# ---------------------------------------------------------------------------
# metrics


def test_aepe_identical_zero():
    rng = np.random.default_rng(6)
    f = rng.normal(size=(5, 7, 2))
    assert aepe(_ff(f), _ff(f.copy())).item() == 0.0


def test_aepe_three_four_five():
    gt = np.zeros((6, 6, 2))
    pred = np.zeros((6, 6, 2))
    pred[..., 0] = 3.0
    pred[..., 1] = 4.0
    assert abs(aepe(_ff(pred), _ff(gt)).item() - 5.0) < 1e-12


def test_aepe_matches_per_cell_oracle():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(9, 4, 2))
    b = rng.normal(size=(9, 4, 2))
    want = np.sqrt(((a - b) ** 2).sum(-1)).mean()
    assert abs(aepe(_ff(a), _ff(b)).item() - want) < 1e-6
    with pytest.raises(DimensionError):
        aepe(_ff(a), _ff(np.zeros((4, 9, 2))))


def test_aepe_gradient_passes_fd():
    rng = np.random.default_rng(8)
    pred = Tensor(rng.normal(size=(4, 4, 2)), requires_grad=True)
    gt = _ff(rng.normal(size=(4, 4, 2)))

    def loss():
        return aepe(FlowField(pred), gt)

    T.backward(loss())
    fd = finite_diff(lambda: loss().item(), pred, 1e-5)
    rel = np.abs(pred.grad - fd) / np.maximum(1.0, np.abs(fd))
    assert rel.max() < 1e-4


def test_aepe_zero_distance_subgradient():
    f = np.zeros((3, 3, 2))
    pred = Tensor(f.copy(), requires_grad=True)
    T.backward(aepe(FlowField(pred), _ff(f)))
    np.testing.assert_array_equal(pred.grad, 0.0)


def test_pck_exact_match_is_one():
    k = KeypointSet(np.array([[10.0, 10.0], [50.0, 60.0]]), (100, 100))
    assert pck(k, k, alpha=0.1) == 1.0


def test_pck_threshold_arithmetic():
    gt = KeypointSet(np.array([[20.0, 20.0], [60.0, 60.0]]), (100, 100))
    pred = KeypointSet(np.array([[26.0, 20.0], [72.0, 60.0]]), (100, 100))
    # threshold 0.1 * 100 = 10: offsets 6 (in) and 12 (out)
    assert pck(pred, gt, alpha=0.1) == 0.5


def test_pck_monotone_in_alpha():
    rng = np.random.default_rng(9)
    gt = KeypointSet(rng.uniform(30, 220, (25, 2)), (256, 256))
    pred = KeypointSet(gt.points + rng.normal(scale=12.0, size=(25, 2)).clip(-25, 25),
                       (256, 256))
    vals = [pck(pred, gt, alpha=a) for a in (0.05, 0.1, 0.15)]
    assert vals[0] <= vals[1] <= vals[2]


@settings(max_examples=30, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10))
def test_pck_translation_invariant(tx, ty):
    base = np.array([[60.0, 60.0], [100.0, 80.0], [90.0, 130.0]])
    noise = np.array([[4.0, -3.0], [12.0, 5.0], [-2.0, 1.0]])
    shift = np.array([tx, ty])
    a = pck(KeypointSet(base + noise, (256, 256)),
            KeypointSet(base, (256, 256)), alpha=0.05)
    b = pck(KeypointSet(base + noise + shift, (256, 256)),
            KeypointSet(base + shift, (256, 256)), alpha=0.05)
    assert a == b


def test_pck_errors():
    k2 = KeypointSet(np.zeros((2, 2)), (64, 64))
    k3 = KeypointSet(np.zeros((3, 2)), (64, 64))
    with pytest.raises(ArgumentError):
        pck(k2, k3)
    with pytest.raises(ArgumentError):
        pck(k2, k2, alpha=-0.5)


# ---------------------------------------------------------------------------
# file io


def test_keypoint_file_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    k = KeypointSet(rng.uniform(0, 199.5, size=(17, 2)), (200, 300))
    path = tmp_path / "kp.txt"
    write_keypoints(path, k)
    back = read_keypoints(path)
    assert back.extents == (200, 300)
    np.testing.assert_array_equal(back.points, k.points)  # repr roundtrip


def test_keypoint_file_header_format(tmp_path):
    path = tmp_path / "kp.txt"
    write_keypoints(path, KeypointSet(np.array([[1.5, 2.25]]), (64, 128)))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "64 128"
    assert lines[1].split() == ["1.5", "2.25"]


def test_keypoint_file_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("64\n1 2\n")
    with pytest.raises(ArgumentError):
        read_keypoints(bad)
    bad.write_text("64 64\n1 two\n")
    with pytest.raises(ArgumentError):
        read_keypoints(bad)
    bad.write_text("")
    with pytest.raises(ArgumentError):
        read_keypoints(bad)
