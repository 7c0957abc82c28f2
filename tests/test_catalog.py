import json

import pytest

from digital_pde import catalog
from digital_pde.graph_core import DigitalSpace
from digital_pde.topology import is_n_manifold, is_n_sphere


class TestEntries:
    def test_all_entries_verify(self):
        entries = catalog.verify_all()
        assert set(entries) == set(catalog.names())

    def test_minimal_sphere_point_counts(self):
        for n, points in [(0, 2), (1, 4), (2, 6), (3, 8), (4, 10)]:
            e = catalog.minimal_sphere_entry(n)
            assert len(e.space.points) == points

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog.entry("no_such_space")


class TestTorus:
    def test_shape(self, torus):
        assert len(torus.points) == 16
        assert all(torus.degree(v) == 6 for v in torus.points)

    def test_manifold(self, torus):
        assert is_n_manifold(torus, 2).ok


class TestKleinBottle:
    def test_rims_are_6_point_1_spheres(self, klein):
        for v in klein.points:
            rim = klein.rim(v)
            assert len(rim.points) == 6
            assert is_n_sphere(rim, 1).ok

    def test_not_isomorphic_to_torus(self, klein, torus):
        from digital_pde.canonical import are_isomorphic
        assert not are_isomorphic(klein, torus)


class TestProjectivePlane:
    def test_11_points_all_rims_1_spheres(self, projective):
        assert len(projective.points) == 11
        for v in projective.points:
            assert is_n_sphere(projective.rim(v), 1).ok

    def test_non_homogeneous(self, projective):
        degrees = {projective.degree(v) for v in projective.points}
        assert len(degrees) > 1


class TestMoebius:
    def test_boundary_interior_split(self, moebius):
        e = catalog.moebius_12()
        assert e.boundary_points == list(range(1, 9))
        assert e.interior_points == list(range(9, 13))
        assert all(moebius.degree(v) == 4 for v in e.boundary_points)
        assert all(moebius.degree(v) == 6 for v in e.interior_points)

    def test_boundary_is_single_8_cycle(self, moebius):
        boundary = moebius.induced(range(1, 9))
        assert all(boundary.degree(v) == 2 for v in boundary.points)
        assert boundary.is_connected()
        assert len(boundary.edges) == 8

    def test_interior_rims_are_1_spheres(self, moebius):
        for v in range(9, 13):
            rim = moebius.rim(v)
            assert len(rim.points) == 6
            assert is_n_sphere(rim, 1).ok


class TestSphere8:
    def test_is_2_sphere(self):
        e = catalog.sphere2_8()
        assert is_n_sphere(e.space, 2).ok

    def test_rim_sizes(self):
        g = catalog.space("sphere2_8")
        assert g.degree(1) == 6 and g.degree(8) == 6
        assert all(g.degree(q) == 4 for q in range(2, 8))


class TestPlanePatch:
    def test_interior_rims(self):
        e = catalog.digital_plane_patch(4, 4)
        for p in e.interior_points:
            rim = e.space.rim(p)
            assert len(rim.points) == 6
            assert is_n_sphere(rim, 1).ok

    def test_3x3_has_one_interior_point(self):
        e = catalog.digital_plane_patch(3, 3)
        assert len(e.interior_points) == 1

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            catalog.digital_plane_patch(2, 5)


class TestOrthogonalGrid:
    def test_rims_are_isolated_points(self):
        g = catalog.orthogonal_grid(4, 4)
        center = [v for v in g.points if g.degree(v) == 4][0]
        rim = g.rim(center)
        assert len(rim.points) == 4
        assert len(rim.edges) == 0

    def test_fails_manifold_check(self):
        report = is_n_manifold(catalog.orthogonal_grid(4, 4), 2)
        assert not report.ok
        assert report.witness_point is not None


class TestStoredSpaces:
    def test_parsed_once_per_file(self, tmp_path, monkeypatch):
        # a fresh data directory, so no earlier test has parsed this file
        stored = catalog.space("klein_bottle_16")
        (tmp_path / "klein_bottle_16.json").write_text(json.dumps(stored.to_json_dict()))
        monkeypatch.setenv(catalog.DATA_ENV_VAR, str(tmp_path))
        opened = []

        def spy(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(catalog, "open", spy, raising=False)
        first = catalog.space("klein_bottle_16")
        assert catalog.space("klein_bottle_16") is first
        assert first == stored
        assert len(opened) == 1


class TestDataOverride:
    def test_env_var_redirects_data_dir(self, tmp_path, monkeypatch):
        # a deliberately broken Klein bottle must fail verification
        bad = DigitalSpace(range(1, 17), [(1, 2)], name="klein_bottle_16")
        path = tmp_path / "klein_bottle_16.json"
        path.write_text(json.dumps(bad.to_json_dict()))
        monkeypatch.setenv(catalog.DATA_ENV_VAR, str(tmp_path))
        entry = catalog.klein_bottle_16()
        with pytest.raises(catalog.CatalogVerificationError):
            catalog.verify_entry(entry)

    def test_rim_sizes_are_checked_against_stored_values(self, tmp_path, monkeypatch):
        # a Moebius strip missing one boundary edge leaves points 1 and 2
        # with rims of 3 points, which the stored sizes refuse
        broken = catalog.space("moebius_12").delete_edge(1, 2)
        (tmp_path / "moebius_12.json").write_text(json.dumps(broken.to_json_dict()))
        monkeypatch.setenv(catalog.DATA_ENV_VAR, str(tmp_path))
        with pytest.raises(catalog.CatalogVerificationError,
                           match=r"rim of 1 has 3 points, expected 4"):
            catalog.verify_entry(catalog.entry("moebius_12"))

    def test_rim_size_of_a_point_not_in_the_space(self, tmp_path, monkeypatch):
        # point 12 relabelled 13, with the same edges: every rim size but
        # point 12's still matches
        d = catalog.space("moebius_12").to_json_dict()
        d["points"] = [13 if p == 12 else p for p in d["points"]]
        d["edges"] = [[13 if p == 12 else p for p in e] for e in d["edges"]]
        (tmp_path / "moebius_12.json").write_text(json.dumps(d))
        monkeypatch.setenv(catalog.DATA_ENV_VAR, str(tmp_path))
        with pytest.raises(catalog.CatalogVerificationError,
                           match=r"^moebius_12: point 12 has a stored rim size "
                                 r"but is not in the space$"):
            catalog.verify_entry(catalog.entry("moebius_12"))


class TestBrokenData:
    """A stored file that is missing or not valid graph JSON is a
    CatalogDataError naming the file, not a KeyError that would read as
    an unknown name."""

    def test_missing_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(catalog.DATA_ENV_VAR, str(tmp_path))
        with pytest.raises(catalog.CatalogDataError,
                           match=r"klein_bottle_16\.json: No such file") as info:
            catalog.space("klein_bottle_16")
        assert not isinstance(info.value, KeyError)

    def test_edge_to_missing_point(self, tmp_path, monkeypatch):
        d = catalog.space("klein_bottle_16").to_json_dict()
        d["edges"].append([1, 99])
        (tmp_path / "klein_bottle_16.json").write_text(json.dumps(d))
        monkeypatch.setenv(catalog.DATA_ENV_VAR, str(tmp_path))
        with pytest.raises(catalog.CatalogDataError,
                           match=r"klein_bottle_16\.json: edge \(1,99\) endpoint not a point$"):
            catalog.entry("klein_bottle_16")

    @pytest.mark.parametrize("text", ["{", "[]", '{"points": [1], "edges": [[1]]}'])
    def test_not_graph_json(self, tmp_path, monkeypatch, text):
        (tmp_path / "moebius_12.json").write_text(text)
        monkeypatch.setenv(catalog.DATA_ENV_VAR, str(tmp_path))
        with pytest.raises(catalog.CatalogDataError, match=r"moebius_12\.json: "):
            catalog.space("moebius_12")
