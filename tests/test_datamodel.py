import json
import re
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
from netresp.kernels import KernelMatrix


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

    def test_read_returns_a_writable_array_of_its_own(self, tmp_path):
        path = tmp_path / "m.msmx"
        write_matrix(np.arange(6.0).reshape(2, 3), path)
        m = read_matrix(path)
        assert m.dtype == np.float64
        assert m.flags.c_contiguous and m.flags.writeable and m.flags.owndata
        m[0, 0] = 7.0  # the caller may change it in place
        assert read_matrix(path)[0, 0] == 0.0


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

    @pytest.mark.parametrize("kind", ["template", "subject", "features", "kernel"])
    def test_freezes_a_view_not_the_callers_array(self, kind):
        # the caller's array stayed writable only when it had to be copied
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 10))
        if kind == "template":
            t = Template(maps=a, component_ids=["c0", "c1"], domains=["A", "B"])
            held = [(a, t.maps)]
        elif kind == "subject":
            held = [(a, Subject(id="s0", bold=a, label="AD", group="g").bold)]
        elif kind == "kernel":
            k = np.eye(2)
            held = [(k, KernelMatrix(k, ("s0", "s1")).values)]
        else:
            tc, fnc, conv = rng.standard_normal((5, 2)), np.eye(2), np.ones(2, dtype=bool)
            f = SubjectFeatures(spatial_maps=a, time_courses=tc, fnc=fnc, converged=conv)
            held = [(a, f.spatial_maps), (tc, f.time_courses), (fnc, f.fnc), (conv, f.converged)]
        for mine, theirs in held:
            assert mine.flags.writeable and not theirs.flags.writeable
            assert np.shares_memory(mine, theirs)

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
        assert [s.id for s in loaded.subjects] == [s.id for s in original.subjects]
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
            # each was read as a class set: "ADMS" as ('A', 'D', 'M', 'S'),
            # ["AD", ["MS"]] as ('AD', "['MS']")
            lambda d: d.__setitem__("class_set", "ADMS"),
            lambda d: d.__setitem__("class_set", ["AD", ["MS"]]),
            lambda d: d.__setitem__("class_set", ["AD", "AD", "MS"]),
        ],
    )
    def test_corrupted_manifests_never_yield_invalid_dataset(self, tmp_path, mutate):
        # each is a fault of the manifest itself, so it is found before any
        # subject is read
        manifest_path, _ = _write_tiny_dataset(tmp_path)
        doc = json.loads(manifest_path.read_text())
        mutate(doc)
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError):
            read_manifest(manifest_path)

    @pytest.mark.parametrize(
        "key, value",
        [
            # each but the last was read without an error: as (1, 2), (1, 0),
            # ('1', 'None'), ('c0', '2.5') and ('1', 'None'); one domain for two
            # template rows was rejected without naming the manifest
            ("scale_order", [1.5, 2]),
            ("scale_order", [True, 0]),
            ("scale_order", 3),
            ("component_ids", [1, None]),
            ("component_ids", ["c0", 2.5]),
            ("domains", [1, None]),
            ("domains", ["A"]),
        ],
    )
    def test_template_keys_of_the_wrong_type_rejected(self, tmp_path, key, value):
        manifest_path, _ = _write_tiny_dataset(tmp_path)
        doc = json.loads(manifest_path.read_text())
        doc[key] = value
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match=f"{re.escape(str(manifest_path))}: .*{key}"):
            read_manifest(manifest_path)

    @pytest.mark.parametrize(
        "key, value",
        # "id": null was subject 'None' and "group": ["g", 1] group "['g', 1]"
        [("id", None), ("id", 3), ("label", ["AD"]), ("group", ["g", 1]), ("bold", 7)],
    )
    def test_subject_entry_values_must_be_strings(self, tmp_path, key, value):
        manifest_path, _ = _write_tiny_dataset(tmp_path)
        doc = json.loads(manifest_path.read_text())
        doc["subjects"][1][key] = value
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match=f"subject entry 1: '{key}' must be a string"):
            read_manifest(manifest_path)

    @pytest.mark.parametrize("sid", ["../escaped", "/abs/s1", "a\\b", "a\0b", "", ".", ".."])
    def test_subject_id_must_be_a_plain_file_name(self, tmp_path, sid):
        # extract wrote '../escaped' to <out>/escaped.sm.msmx, outside features/
        manifest_path, _ = _write_tiny_dataset(tmp_path)
        doc = json.loads(manifest_path.read_text())
        doc["subjects"][1]["id"] = sid
        manifest_path.write_text(json.dumps(doc))
        message = f"{manifest_path}: subject entry 1: 'id' must be a plain file name"
        with pytest.raises(ManifestError, match=re.escape(message)):
            read_manifest(manifest_path)

    def test_entries_checked_before_any_bold_is_read(self, tmp_path):
        manifest_path, _ = _write_tiny_dataset(tmp_path, n_subjects=3)
        (tmp_path / "s0.bold.msmx").write_bytes(b"")
        doc = json.loads(manifest_path.read_text())
        doc["subjects"][2]["id"] = "s0"
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="subject entry 2: duplicate subject id 's0'"):
            read_manifest(manifest_path)

    def test_bolds_are_new_writable_arrays(self, tmp_path):
        manifest_path, ds = _write_tiny_dataset(tmp_path)
        manifest = read_manifest(manifest_path)
        first, again = list(manifest.bolds()), list(manifest.bolds())
        for n, bold in enumerate(first):
            assert bold.flags.writeable and not np.shares_memory(bold, again[n])
            assert np.array_equal(bold, ds.subjects[n].bold)

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

    def test_non_finite_bold_rejected_naming_its_file(self, tmp_path):
        # Subject checks the bold's shape; its values are checked where it is written
        _, ds = _write_tiny_dataset(tmp_path / "src")
        bold = ds.subjects[1].bold.copy()
        bold[2, 3] = np.nan
        s = Subject(id="s1", bold=bold, label="MS", group="g")
        with pytest.raises(NonFiniteValueError, match="s1.bold.msmx"):
            write_subjects(ds.template, ds.class_set, [ds.subjects[0], s], tmp_path / "out")
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("field", ["label", "voxels", "id"])
    def test_rejects_what_dataset_rejects(self, tmp_path, field):
        _, ds = _write_tiny_dataset(tmp_path / "src")
        s = ds.subjects[1]
        if field == "label":
            s = Subject(id=s.id, bold=s.bold, label="nope", group=s.group)
        elif field == "id":  # was written to tmp_path/s1.bold.msmx, outside out/
            s = Subject(id="../s1", bold=s.bold, label=s.label, group=s.group)
        else:
            s = Subject(id=s.id, bold=s.bold[:, :-1], label=s.label, group=s.group)
        with pytest.raises(ValueError) as streamed:
            write_subjects(ds.template, ds.class_set, [ds.subjects[0], s], tmp_path / "out")
        with pytest.raises(ValueError) as in_memory:
            Dataset(ds.template, (ds.subjects[0], s), ds.class_set)
        assert str(streamed.value) == str(in_memory.value)
        assert not (tmp_path / "out" / "manifest.json").exists()
