"""RunSpec: canonical, picklable, label-blind."""

import pickle

from repro.runner import RunSpec


def test_make_canonicalises_kwarg_order():
    a = RunSpec.make("gauss", "disk", overrides={"n_servers": 4, "seed": 7})
    b = RunSpec.make("gauss", "disk", overrides={"seed": 7, "n_servers": 4})
    assert a == b
    assert a.identity() == b.identity()
    assert hash(a) == hash(b)


def test_label_is_display_only():
    plain = RunSpec.make("gauss", "disk")
    labelled = RunSpec.make("gauss", "disk", label="gauss/disk")
    assert plain == labelled
    assert plain.identity() == labelled.identity()


def test_identity_distinguishes_every_fingerprint_field():
    base = RunSpec.make("gauss", "disk")
    variants = [
        RunSpec.make("mvec", "disk"),
        RunSpec.make("gauss", "mirroring"),
        RunSpec.make("gauss", "disk", workload_kwargs={"n": 1000}),
        RunSpec.make("gauss", "disk", overrides={"n_servers": 3}),
        RunSpec.make("gauss", "disk", overrides={"free_batch": 2}),
        RunSpec.make("gauss", "disk", seed=1),
        RunSpec.make("gauss", "disk", hook="background-load"),
        RunSpec.make("gauss", "disk", extract=("network-stats",)),
    ]
    identities = {spec.identity() for spec in variants}
    assert base.identity() not in identities
    assert len(identities) == len(variants)


def test_spec_pickles_roundtrip():
    spec = RunSpec.make(
        "fft",
        "parity-logging",
        workload_kwargs={"size_mb": 24.0},
        overrides={"overflow_fraction": 0.10},
        hook="background-load",
        hook_kwargs={"total_load": 0.3},
        extract=("network-stats",),
        label="fft/parity",
    )
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.identity() == spec.identity()
    assert clone.label == spec.label


def test_describe_is_json_friendly():
    import json

    spec = RunSpec.make(
        "gauss", "disk", overrides={"n_servers": 2}, workload_kwargs={"n": 500}
    )
    description = spec.describe()
    assert json.loads(json.dumps(description)) == description
    assert description["workload"] == "gauss"
    assert description["overrides"] == {"n_servers": "2"}
