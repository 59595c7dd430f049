import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netresp.datamodel import (
    BadMagicError,
    BadVersionError,
    Dataset,
    ManifestError,
    NonFiniteValueError,
    Subject,
    SubjectFeatures,
    Template,
    TruncatedPayloadError,
    load_dataset,
    read_manifest,
    read_matrix,
    write_dataset,
    write_matrix,
    write_subjects,
)


class TestMatrixContainer:
    def test_one_by_one_is_32_bytes(self, tmp_path):
        path = tmp_path / "m.msmx"
        write_matrix(np.array([[0.0]]), path)
        assert path.stat().st_size == 4 + 4 + 8 + 8 + 8

    def test_header_fields_and_payload_size(self, tmp_path):
        path = tmp_path / "m.msmx"
        write_matrix(np.zeros((2, 3)), path)
        blob = path.read_bytes()
        magic, version, rows, cols = struct.unpack_from("<4sIQQ", blob)
        assert magic == b"MSMX"
        assert version == 1
        assert (rows, cols) == (2, 3)
        assert len(blob) - 24 == 48

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((10, 10))
        path = tmp_path / "m.msmx"
        write_matrix(m, path)
        back = read_matrix(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, m)
        # bit-level identity, not just value equality
        assert back.tobytes() == m.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(1, 7),
        cols=st.integers(1, 7),
        data=st.data(),
    )
    def test_round_trip_property(self, tmp_path_factory, rows, cols, data):
        values = data.draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=rows * cols,
                max_size=rows * cols,
            )
        )
        m = np.array(values).reshape(rows, cols)
        path = tmp_path_factory.mktemp("rt") / "m.msmx"
        write_matrix(m, path)
        assert np.array_equal(read_matrix(path), m)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.msmx"
        write_matrix(np.ones((2, 2)), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            read_matrix(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.msmx"
        write_matrix(np.ones((2, 2)), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(BadVersionError):
            read_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.msmx"
        write_matrix(np.ones((2, 2)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(TruncatedPayloadError):
            read_matrix(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.msmx"
        write_matrix(np.ones((2, 2)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TruncatedPayloadError):
            read_matrix(path)

    def test_nan_payload(self, tmp_path):
        path = tmp_path / "m.msmx"
        write_matrix(np.ones((1, 2)), path)
        blob = bytearray(path.read_bytes())
        blob[24:32] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(NonFiniteValueError):
            read_matrix(path)

    def test_write_rejects_non_finite(self, tmp_path):
        with pytest.raises(NonFiniteValueError):
            write_matrix(np.array([[np.inf]]), tmp_path / "m.msmx")


def _template(k=3, v=50, seed=0):
    rng = np.random.default_rng(seed)
    return Template(
        maps=rng.standard_normal((k, v)),
        component_ids=[f"c{i}" for i in range(k)],
        domains=["D0", "D1", "D0"][:k],
    )


class TestTypes:
    def test_template_rejects_constant_row(self):
        maps = np.ones((2, 10))
        with pytest.raises(ValueError, match="zero variance"):
            Template(maps=maps, component_ids=["a", "b"], domains=["x", "y"])

    def test_template_domain_length_mismatch(self):
        with pytest.raises(ValueError):
            Template(
                maps=np.random.default_rng(0).standard_normal((2, 5)),
                component_ids=["a", "b"],
                domains=["x"],
            )

    def test_template_helpers(self):
        t = _template()
        assert t.n_components == 3
        assert t.n_voxels == 50

    def test_template_is_read_only(self):
        t = _template()
        with pytest.raises(ValueError):
            t.maps[0, 0] = 1.0

    def test_subject_needs_two_timepoints(self):
        with pytest.raises(ValueError, match="timepoints"):
            Subject(id="s", bold=np.ones((1, 5)), label="AD", group="AD")

    def test_dataset_label_outside_class_set(self):
        t = _template()
        s = Subject(
            id="s0",
            bold=np.random.default_rng(1).standard_normal((4, 50)),
            label="XX",
            group="XX",
        )
        with pytest.raises(ValueError, match="class_set"):
            Dataset(template=t, subjects=(s,), class_set=("AD", "MS"))

    def test_dataset_duplicate_ids(self):
        t = _template()
        rng = np.random.default_rng(1)
        subs = tuple(
            Subject(id="dup", bold=rng.standard_normal((4, 50)), label="AD", group="AD")
            for _ in range(2)
        )
        with pytest.raises(ValueError, match="duplicate"):
            Dataset(template=t, subjects=subs, class_set=("AD", "MS"))

    def test_dataset_voxel_mismatch(self):
        t = _template(v=50)
        s = Subject(
            id="s0",
            bold=np.random.default_rng(1).standard_normal((4, 40)),
            label="AD",
            group="AD",
        )
        with pytest.raises(ValueError, match="voxels"):
            Dataset(template=t, subjects=(s,), class_set=("AD", "MS"))

    def test_dataset_subset(self):
        t = _template()
        rng = np.random.default_rng(1)
        subs = tuple(
            Subject(id=f"s{i}", bold=rng.standard_normal((4, 50)), label=lab, group=lab)
            for i, lab in enumerate(["AD", "MS", "NR", "AD"])
        )
        ds = Dataset(template=t, subjects=subs, class_set=("AD", "MS", "NR"))
        sub = ds.subset(("AD", "MS"))
        assert sub.labels() == ["AD", "MS", "AD"]
        assert sub.class_set == ("AD", "MS")

    def test_features_fnc_must_be_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(2)
        sm = rng.standard_normal((3, 20))
        tc = rng.standard_normal((10, 3))
        bad = np.eye(3)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            SubjectFeatures(spatial_maps=sm, time_courses=tc, fnc=bad)
        bad2 = np.eye(3) * 0.9
        with pytest.raises(ValueError, match="diagonal"):
            SubjectFeatures(spatial_maps=sm, time_courses=tc, fnc=bad2)

    def test_with_fnc_returns_new_instance(self):
        rng = np.random.default_rng(2)
        f = SubjectFeatures(
            spatial_maps=rng.standard_normal((3, 20)),
            time_courses=rng.standard_normal((10, 3)),
        )
        fnc = np.eye(3)
        f2 = f.with_fnc(fnc)
        assert f.fnc is None
        assert np.array_equal(f2.fnc, fnc)


def _write_tiny_dataset(tmp_path, n_subjects=2, v=30, labels=None):
    rng = np.random.default_rng(7)
    t = Template(
        maps=rng.standard_normal((2, v)),
        component_ids=["c0", "c1"],
        domains=["A", "B"],
    )
    labels = labels or ["AD", "MS"]
    subs = tuple(
        Subject(
            id=f"s{i}",
            bold=rng.standard_normal((6, v)),
            label=labels[i % len(labels)],
            group="g",
        )
        for i in range(n_subjects)
    )
    ds = Dataset(template=t, subjects=subs, class_set=("AD", "MS"))
    return write_dataset(ds, tmp_path), ds


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest_path, original = _write_tiny_dataset(tmp_path)
        loaded = load_dataset(manifest_path)
        assert loaded.n_subjects == 2
        assert loaded.subject_ids() == original.subject_ids()
        assert np.array_equal(loaded.template.maps, original.template.maps)
        for a, b in zip(loaded.subjects, original.subjects):
            assert np.array_equal(a.bold, b.bold)
            assert (a.label, a.group) == (b.label, b.group)

    def test_two_subject_manifest_loads(self, tmp_path):
        manifest_path, _ = _write_tiny_dataset(tmp_path, n_subjects=2)
        assert load_dataset(manifest_path).n_subjects == 2

    def test_voxel_mismatch_rejected(self, tmp_path):
        manifest_path, _ = _write_tiny_dataset(tmp_path)
        write_matrix(
            np.random.default_rng(0).standard_normal((6, 17)), tmp_path / "s0.bold.msmx"
        )
        with pytest.raises(ManifestError, match="voxel"):
            load_dataset(manifest_path)

    def test_duplicate_id_rejected(self, tmp_path):
        manifest_path, _ = _write_tiny_dataset(tmp_path)
        doc = json.loads(manifest_path.read_text())
        doc["subjects"][1]["id"] = doc["subjects"][0]["id"]
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="duplicate"):
            load_dataset(manifest_path)

    def test_label_outside_class_set_rejected(self, tmp_path):
        manifest_path, _ = _write_tiny_dataset(tmp_path)
        doc = json.loads(manifest_path.read_text())
        doc["subjects"][0]["label"] = "nope"
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="class_set"):
            load_dataset(manifest_path)

    def test_missing_file_rejected(self, tmp_path):
        manifest_path, _ = _write_tiny_dataset(tmp_path)
        (tmp_path / "s1.bold.msmx").unlink()
        with pytest.raises(ManifestError, match="not found"):
            load_dataset(manifest_path)

    def test_unknown_keys_rejected(self, tmp_path):
        manifest_path, _ = _write_tiny_dataset(tmp_path)
        doc = json.loads(manifest_path.read_text())
        doc["surprise"] = 1
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="surprise"):
            load_dataset(manifest_path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("template"),
            lambda d: d.__setitem__("domains", ["A"]),
            lambda d: d.__setitem__("class_set", ["AD"]),
            lambda d: d["subjects"][0].pop("label"),
            lambda d: d["subjects"][0].__setitem__("extra", 1),
            lambda d: d.__setitem__("subjects", [{"id": "x"}]),
        ],
    )
    def test_corrupted_manifests_never_yield_invalid_dataset(self, tmp_path, mutate):
        manifest_path, _ = _write_tiny_dataset(tmp_path)
        doc = json.loads(manifest_path.read_text())
        mutate(doc)
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises((ManifestError, ValueError)):
            load_dataset(manifest_path)

    def test_garbage_json_rejected(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("{not json")
        with pytest.raises(ManifestError, match="JSON"):
            load_dataset(p)

    def test_write_dataset_deterministic(self, tmp_path):
        p1, _ = _write_tiny_dataset(tmp_path / "a")
        p2, _ = _write_tiny_dataset(tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()
        for f in sorted((tmp_path / "a").glob("*.msmx")):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_read_manifest_leaves_bold_unread(self, tmp_path):
        manifest_path, _ = _write_tiny_dataset(tmp_path)
        bold = tmp_path / "s1.bold.msmx"
        bold.write_bytes(bold.read_bytes()[:-8])
        manifest = read_manifest(manifest_path)
        assert [e["id"] for e in manifest.entries] == ["s0", "s1"]
        subjects = manifest.subjects()
        assert next(subjects).id == "s0"
        with pytest.raises(TruncatedPayloadError, match="s1.bold.msmx"):
            next(subjects)


class TestWriteSubjects:
    def test_checks_each_subject_as_it_arrives(self, tmp_path):
        manifest_path, ds = _write_tiny_dataset(tmp_path)
        written = []

        def subjects():
            for s in (ds.subjects[0], ds.subjects[0], ds.subjects[1]):
                written.append(s.id)
                yield s

        with pytest.raises(ValueError, match="duplicate subject id"):
            write_subjects(ds.template, ds.class_set, subjects(), tmp_path)
        assert written == ["s0", "s0"]
        assert not manifest_path.exists()  # the old manifest went before the first write

    @pytest.mark.parametrize("field", ["label", "voxels"])
    def test_rejects_what_dataset_rejects(self, tmp_path, field):
        _, ds = _write_tiny_dataset(tmp_path / "src")
        s = ds.subjects[1]
        if field == "label":
            s = Subject(id=s.id, bold=s.bold, label="nope", group=s.group)
        else:
            s = Subject(id=s.id, bold=s.bold[:, :-1], label=s.label, group=s.group)
        with pytest.raises(ValueError) as streamed:
            write_subjects(ds.template, ds.class_set, [ds.subjects[0], s], tmp_path / "out")
        with pytest.raises(ValueError) as in_memory:
            Dataset(ds.template, (ds.subjects[0], s), ds.class_set)
        assert str(streamed.value) == str(in_memory.value)
        assert not (tmp_path / "out" / "manifest.json").exists()
