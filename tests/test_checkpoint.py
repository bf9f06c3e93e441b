"""Tests for binary checkpoint serialization."""

import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcast import files, model as model_module
from flowcast.checkpoint import SPE_KEY, _graph_digest, load_checkpoint, save_checkpoint
from flowcast.data import prepare_dataset, ring_edge_lines, synthetic_series
from flowcast.embedding import SpePack
from flowcast.errors import InputError
from flowcast.model import ModelConfig, TrainState, build_model, forward_arrays, train
from flowcast.stgraph import load_spatial_graph


def _fixture(epochs=1, learning_rate=0.01, seed=5):
    graph = load_spatial_graph(ring_edge_lines(4), symmetrize=True)
    config = ModelConfig(
        n_nodes=4,
        t_in=4,
        t_out=2,
        channels=1,
        dim=8,
        spe_modes=2,
        gamma=24,
        n_blocks=1,
        n_heads=2,
        n_subsets=2,
        seed=seed,
        epochs=epochs,
        batch_size=8,
        learning_rate=learning_rate,
    )
    model = build_model(config, graph)
    return graph, model


def _header_end(blob):
    return 12 + int.from_bytes(blob[8:12], "little")


def _with_header(blob, raw):
    return blob[:8] + len(raw).to_bytes(4, "little") + raw + blob[_header_end(blob) :]


def _with_payload(blob, payload):
    """blob with payload after its header, and the header's hash of it."""
    header = json.loads(blob[12 : _header_end(blob)])
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    return _with_header(blob[: _header_end(blob)], json.dumps(header).encode()) + payload


def _without_tensor(blob, name):
    """blob with the named tensor dropped from the header and the payload."""
    header = json.loads(blob[12 : _header_end(blob)])
    offset, kept, payload = _header_end(blob), [], []
    for entry in header["tensors"]:
        size = 8 * math.prod(entry[1])
        if entry[0] != name:
            kept.append(entry)
            payload.append(blob[offset : offset + size])
        offset += size
    header["tensors"] = kept
    edited = _with_header(blob, json.dumps(header).encode())
    return _with_payload(edited, b"".join(payload) + blob[offset:])


def _probe(model):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(4, 4, 1))
    return forward_arrays(model, values, np.zeros(4, dtype=np.int64), np.arange(4)).data


def test_round_trip_bit_exact(tmp_path):
    graph, model = _fixture()
    series = synthetic_series(4, 60, interval_min=60, seed=2, noise=1.0)
    ds = prepare_dataset(series, 4, 2)
    state = train(model, ds)

    path = tmp_path / "model.bin"
    save_checkpoint(model, path, state)
    loaded, loaded_state = load_checkpoint(path, graph)

    assert loaded_state.epoch == 1
    assert loaded.config == model.config
    for pa, pb in zip(model.params(), loaded.params()):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.data, pb.data)
    np.testing.assert_array_equal(loaded.norm_stats.mean, model.norm_stats.mean)
    np.testing.assert_array_equal(loaded.norm_stats.std, model.norm_stats.std)
    assert loaded.spe.dtype == model.spe.dtype
    assert loaded.spe.tobytes() == model.spe.tobytes()

    for label, a, b in (("p1", model.p1, loaded.p1), ("p2", model.p2, loaded.p2)):
        assert b.label == a.label
        assert b.tau == a.tau
        assert b.base_flats == a.base_flats
        np.testing.assert_array_equal(b.assignment, a.assignment)

    rng = np.random.default_rng(0)
    values = rng.normal(size=(4, 4, 1))
    day = np.zeros(4, dtype=np.int64)
    step = np.arange(4)
    np.testing.assert_array_equal(
        forward_arrays(model, values, day, step).data,
        forward_arrays(loaded, values, day, step).data,
    )


def test_round_trip_without_norm_stats(tmp_path):
    graph, model = _fixture()
    assert model.norm_stats is None
    path = tmp_path / "fresh.bin"
    save_checkpoint(model, path)
    loaded, state = load_checkpoint(path, graph)
    assert state.epoch == 0
    assert loaded.norm_stats is None


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    graph, _ = _fixture()
    with pytest.raises(InputError, match="magic"):
        load_checkpoint(path, graph)


def test_truncated_file(tmp_path):
    graph, model = _fixture()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    # inside the prefix, inside the header, halfway, 5 bytes into the first
    # tensor, and 3 bytes short of the last subset id
    header_end = _header_end(blob)
    for length in (10, header_end - 5, len(blob) // 2, header_end + 5, len(blob) - 3):
        cut = tmp_path / "cut.bin"
        cut.write_bytes(blob[:length])
        with pytest.raises(InputError, match="truncated"):
            load_checkpoint(cut, graph)


def test_missing_file(tmp_path):
    graph, _ = _fixture()
    with pytest.raises(InputError, match="not found"):
        load_checkpoint(tmp_path / "absent.bin", graph)


def test_unsupported_version(tmp_path):
    graph, model = _fixture()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    # 1 is the per-head layout with key biases, 2 the per-field binary
    # layout before the JSON header, 3 the layout without the spectral
    # coordinates, 4 the layout without the optimizer state, 5 the one
    # without a payload hash; 99 is from the future
    for version in (1, 2, 3, 4, 5, 99):
        blob[4] = version
        bad = tmp_path / f"v{version}.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(InputError, match=f"unsupported checkpoint version {version}"):
            load_checkpoint(bad, graph)


@pytest.fixture(scope="module")
def saved_blob(tmp_path_factory):
    """The bytes of a small trained checkpoint and the end of its header."""
    graph, model = _fixture()
    path = tmp_path_factory.mktemp("saved") / "model.bin"
    series = synthetic_series(4, 60, interval_min=60, seed=2, noise=1.0)
    save_checkpoint(model, path, train(model, prepare_dataset(series, 4, 2)))
    blob = path.read_bytes()
    return graph, blob, _header_end(blob)


@settings(max_examples=50, derandomize=True)
@given(data=st.data())
def test_flipped_payload_bits_are_input_errors(saved_blob, tmp_path_factory, data):
    # any one to three bits flipped after the header, in a tensor or a
    # subset id, fail the payload hash before a tensor is read
    graph, blob, header_end = saved_blob
    bits = data.draw(st.sets(st.integers(8 * header_end, 8 * len(blob) - 1), min_size=1, max_size=3))
    flipped = bytearray(blob)
    for bit in bits:
        flipped[bit // 8] ^= 1 << (bit % 8)
    path = tmp_path_factory.mktemp("flipped") / "flipped.bin"
    path.write_bytes(bytes(flipped))
    with pytest.raises(InputError, match="flipped.bin: truncated or corrupt checkpoint: the payload fails its payload_sha256$"):
        load_checkpoint(path, graph)


def test_bytes_after_the_payload_are_input_errors(saved_blob, tmp_path):
    graph, blob, _ = saved_blob
    path = tmp_path / "longer.bin"
    path.write_bytes(blob + b"\x00")
    with pytest.raises(InputError, match="longer.bin: truncated or corrupt checkpoint"):
        load_checkpoint(path, graph)


def test_load_runs_no_eigendecomposition(tmp_path, monkeypatch):
    graph, model = _fixture()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint ran an eigendecomposition")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    loaded, _ = load_checkpoint(path, graph)
    np.testing.assert_array_equal(_probe(loaded), _probe(model))


def test_load_keeps_the_saved_coordinates_when_the_basis_would_differ(tmp_path, monkeypatch):
    # A host whose LAPACK returned another sign for one eigenvector must
    # still reproduce the saved model's predictions.
    graph, model = _fixture()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    original = model_module.compute_spe

    def flipped(spatial, n_modes):
        pack = original(spatial, n_modes)
        selected = pack.selected.copy()
        selected[:, 0] *= -1.0
        return SpePack(eigvals=pack.eigvals, eigvecs=pack.eigvecs, selected=selected)

    monkeypatch.setattr(model_module, "compute_spe", flipped)
    rebuilt = build_model(model.config, graph)
    # same seed and weights, so the flipped column alone changes a fresh build
    assert not np.array_equal(_probe(rebuilt), _probe(model))
    loaded, _ = load_checkpoint(path, graph)
    np.testing.assert_array_equal(_probe(loaded), _probe(model))


def test_missing_or_misshapen_coordinates_are_input_error(tmp_path):
    graph, model = _fixture()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_without_tensor(path.read_bytes(), SPE_KEY))
    with pytest.raises(InputError, match="bad.bin: checkpoint stores no spectral coordinates"):
        load_checkpoint(bad, graph)

    saved = model.spe
    for coords in (saved[:, :1], saved[:3], np.zeros((4, 2, 1))):
        model.spe = coords.copy()
        save_checkpoint(model, bad)
        with pytest.raises(InputError, match=r"bad.bin: spectral coordinates have shape .*expected \(4, 2\)"):
            load_checkpoint(bad, graph)


def test_graph_digest_matches_per_label_formula():
    # the digest hashes the labels as one buffer; it must equal the
    # label-by-label updates that earlier checkpoints were written with
    graphs = [
        load_spatial_graph(ring_edge_lines(4), symmetrize=True),
        load_spatial_graph(["a b 1.0", "b c 2.5", "été a 0.5", "node-with-a-long-label c"]),
    ]
    for spatial in graphs:
        digest = hashlib.sha256(struct.pack("<I", spatial.n_nodes))
        for label in spatial.labels:
            raw = label.encode("utf-8")
            digest.update(struct.pack("<H", len(raw)) + raw)
        digest.update(np.ascontiguousarray(spatial.adjacency, dtype="<f8").tobytes())
        assert _graph_digest(spatial) == digest.hexdigest()


def test_rewired_graph_of_same_size_is_rejected(tmp_path):
    graph, model = _fixture()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    # same 4 nodes, labels and edge count as the ring, different edges
    rewired = load_spatial_graph(["nodes 4", "0 2 1.0", "2 1 1.0", "1 3 1.0", "3 0 1.0"])
    assert rewired.labels == graph.labels
    with pytest.raises(InputError, match="different graph"):
        load_checkpoint(path, rewired)


def test_graph_loaded_without_symmetrize_is_rejected(tmp_path):
    graph, model = _fixture()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    directed = load_spatial_graph(ring_edge_lines(4), symmetrize=False)
    with pytest.raises(InputError, match="different graph"):
        load_checkpoint(path, directed)
    # the same graph, loaded again the same way, is accepted
    load_checkpoint(path, load_spatial_graph(ring_edge_lines(4), symmetrize=True))


def _save_with_tensors(tmp_path, model, params):
    # write the checkpoint as if the model had exactly these parameters
    path = tmp_path / "edited.bin"
    model.params = lambda: params
    save_checkpoint(model, path)
    return path


def test_dropped_tensor_is_input_error(tmp_path):
    graph, model = _fixture()
    params = model.params()
    path = _save_with_tensors(tmp_path, model, params[:3] + params[4:])
    with pytest.raises(InputError, match=f"edited.bin.*missing parameters: {params[3].name}$"):
        load_checkpoint(path, graph)


def test_unknown_tensor_is_input_error(tmp_path):
    graph, model = _fixture()
    params = model.params()
    params[0].name = "block9.bogus"
    path = _save_with_tensors(tmp_path, model, params)
    with pytest.raises(InputError, match="edited.bin.*unknown parameter block9.bogus"):
        load_checkpoint(path, graph)


def test_misshapen_tensor_is_input_error(tmp_path):
    graph, model = _fixture()
    params = model.params()
    params[1].data = params[1].data[..., :1].copy()
    path = _save_with_tensors(tmp_path, model, params)
    with pytest.raises(InputError, match=f"edited.bin.*{params[1].name} has shape"):
        load_checkpoint(path, graph)


def _header_edit(keys, value):
    """An edit of a checkpoint blob that sets the header entry at keys, or
    deletes it when value is None."""

    def edit(blob):
        header = json.loads(blob[12 : _header_end(blob)])
        target = header
        for key in keys[:-1]:
            target = target[key]
        if value is None:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
        return _with_header(blob, json.dumps(header).encode())

    return edit


def test_malformed_config_value_is_input_error(tmp_path):
    graph, model = _fixture()
    series = synthetic_series(4, 60, interval_min=60, seed=2, noise=1.0)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path, train(model, prepare_dataset(series, 4, 2)))
    blob = path.read_bytes()
    names = [name for name, _ in json.loads(blob[12 : _header_end(blob)])["tensors"]]
    moments, first = names.index("adam_moments"), model.params()[0]
    snapshot = names.index("best_params." + first.name)
    size = sum(p.data.size for p in model.params())
    cases = [
        (_header_edit(("config", "dim"), 8.0), "edited.bin: checkpoint config dim must be int, got 8.0"),
        (_header_edit(("config", "learning_rate"), "fast"), "learning_rate must be float, got 'fast'"),
        (_header_edit(("state", "epoch"), "one"), "edited.bin: checkpoint state epoch must be int, got 'one'"),
        (_header_edit(("state", "best_val_mae"), [1.0]), "edited.bin: .*best_val_mae must be float"),
        (_header_edit(("state", "epoch"), -3), "edited.bin: state epoch must be at least 0, got -3$"),
        (_header_edit(("state", "step_count"), -1), "edited.bin: state step_count must be at least 0"),
        (_header_edit(("state", "best_epoch"), -2), "edited.bin: state best_epoch must be at least 0"),
        (
            _header_edit(("tensors", moments, 1), [1, 2 * size]),
            rf"edited.bin: .*adam moments of shape \(1, {2 * size}\) do not fit the parameters$",
        ),
        (
            _header_edit(("tensors", snapshot, 1), [first.data.size]),
            f"edited.bin: .*parameter best_params.{first.name} has shape",
        ),
        (
            lambda blob: _without_tensor(blob, "best_params." + first.name),
            f"edited.bin: .*missing parameters: best_params.{first.name}$",
        ),
    ]
    for edit, message in cases:
        edited = tmp_path / "edited.bin"
        edited.write_bytes(edit(blob))
        with pytest.raises(InputError, match=message):
            load_checkpoint(edited, graph)


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (("schemes", 0, "tau"), -3, "edited.bin: P1: tau must be a non-negative integer, got -3$"),
        (("schemes", 1, "label"), 7, "edited.bin: a scheme label must be a string, got 7$"),
        (("config", "n_subsets"), 3, "edited.bin: P1 has 2 subsets, but n_subsets is 3$"),
        (("schemes", 1), None, "edited.bin: malformed checkpoint header .*expected 2 schemes"),
        (("tensors", 0, 1, 0), -1, "edited.bin: malformed checkpoint header .*non-negative integer"),
        (("payload_sha256",), "0" * 64, "edited.bin: truncated or corrupt checkpoint: the payload fails"),
    ],
    ids=[
        "negative-tau", "label-not-a-string", "n_subsets-not-stored", "one-scheme",
        "negative-dimension", "other-payload-hash",
    ],
)
def test_scheme_header_edits_are_input_errors(tmp_path, keys, value, message):
    graph, model = _fixture()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    edited = tmp_path / "edited.bin"
    edited.write_bytes(_header_edit(keys, value)(path.read_bytes()))
    with pytest.raises(InputError, match=message):
        load_checkpoint(edited, graph)


def _same_state(a: TrainState, b: TrainState):
    assert (a.epoch, a.step_count, a.best_epoch) == (b.epoch, b.step_count, b.best_epoch)
    assert struct.pack("<d", a.best_val_mae) == struct.pack("<d", b.best_val_mae)
    assert (a.moments is None) == (b.moments is None)
    if a.moments is not None:
        assert (a.moments.shape, a.moments.tobytes()) == (b.moments.shape, b.moments.tobytes())
    assert list(a.best_params) == list(b.best_params)
    for name, array in a.best_params.items():
        assert (array.shape, array.tobytes()) == (b.best_params[name].shape, b.best_params[name].tobytes())


@pytest.mark.parametrize(
    "epochs, ratios, best",
    [(1, (7.0, 1.0, 2.0), math.isfinite), (0, (7.0, 1.0, 2.0), math.isinf), (2, (8.0, 0.0, 2.0), math.isnan)],
    ids=["trained", "inf-before-any-step", "nan-empty-validation"],
)
def test_train_state_round_trips_bit_exact(tmp_path, epochs, ratios, best):
    graph, model = _fixture(epochs=epochs)
    series = synthetic_series(4, 60, interval_min=60, seed=2, noise=1.0)
    state = train(model, prepare_dataset(series, 4, 2, ratios=ratios))
    assert best(state.best_val_mae) and (state.step_count == 0) == (epochs == 0)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path, state)
    loaded, loaded_state = load_checkpoint(path, graph)
    _same_state(state, loaded_state)
    assert loaded_state.trace == []
    save_checkpoint(loaded, tmp_path / "again.bin", loaded_state)
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_save_without_a_state_stores_a_fresh_one_and_no_state_tensors(tmp_path):
    graph, model = _fixture()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    names = [name for name, _ in json.loads(blob[12 : _header_end(blob)])["tensors"]]
    assert names == [p.name for p in model.params()] + [SPE_KEY]
    _, state = load_checkpoint(path, graph)
    _same_state(state, TrainState())


def test_header_that_is_not_json_is_input_error(tmp_path):
    graph, model = _fixture()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_with_header(path.read_bytes(), b'{"config": {'))
    with pytest.raises(InputError, match="malformed checkpoint header"):
        load_checkpoint(bad, graph)


def test_subset_id_out_of_range_is_input_error(tmp_path):
    graph, model = _fixture()
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    # the file ends with P2's subset ids; l = 2, so 7 names no subset
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_with_payload(blob, blob[_header_end(blob) : -4] + (7).to_bytes(4, "little")))
    with pytest.raises(InputError, match="bad.bin: P2: subset id 7 out of range for l=2"):
        load_checkpoint(bad, graph)


def test_integer_learning_rate_round_trips(tmp_path):
    graph, model = _fixture(learning_rate=1)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path, graph)
    assert loaded.config.learning_rate == 1.0
    assert type(loaded.config.learning_rate) is float


def test_numpy_scalar_config_value_round_trips(tmp_path):
    graph, model = _fixture(seed=np.int64(5))
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path, graph)
    assert loaded.config.seed == 5
    assert type(loaded.config.seed) is int


class _FailingFile:
    """A binary file whose second write fails, as on a full disk."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError("No space left on device")
        return self.fh.write(data)


def test_failed_write_leaves_previous_checkpoint_intact(tmp_path, monkeypatch):
    graph, model = _fixture()
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(model, path, TrainState(epoch=1))
    before = path.read_bytes()
    saved = model.params()[0].data.copy()

    model.params()[0].data += 1.0
    monkeypatch.setattr(files, "open", _FailingFile, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(model, path, TrainState(epoch=2))
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert not (tmp_path / "checkpoint.bin.partial").exists()
    loaded, state = load_checkpoint(path, graph)
    assert state.epoch == 1
    np.testing.assert_array_equal(loaded.params()[0].data, saved)
