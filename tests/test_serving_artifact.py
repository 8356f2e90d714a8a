"""Tests of the serving artifact format (save/load/round-trip fidelity)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.model import ClusteringResult
from repro.core.thresholds import ChiSquareThreshold, VarianceRatioThreshold
from repro.reliability import stamp_json_file
from repro.serving.artifact import (
    ARTIFACT_FORMAT,
    MANIFEST_NAME,
    SCHEMA_VERSION,
    ModelArtifact,
    load_artifact,
    threshold_from_description,
)
from repro.serving.index import ProjectedClusterIndex


@pytest.fixture()
def artifact(fitted_sspc):
    return fitted_sspc.to_artifact()


class TestResultRoundTrip:
    def test_labels_round_trip(self, fitted_sspc, artifact):
        rebuilt = artifact.to_result()
        np.testing.assert_array_equal(rebuilt.labels(), fitted_sspc.result_.labels())
        np.testing.assert_array_equal(rebuilt.outliers, fitted_sspc.result_.outliers)

    def test_clusters_round_trip(self, fitted_sspc, artifact):
        rebuilt = artifact.to_result()
        original = fitted_sspc.result_
        assert rebuilt.n_clusters == original.n_clusters
        for a, b in zip(rebuilt.clusters, original.clusters):
            np.testing.assert_array_equal(a.members, b.members)
            np.testing.assert_array_equal(a.dimensions, b.dimensions)
            assert a.score == b.score
            np.testing.assert_array_equal(a.representative, b.representative)

    def test_metadata_round_trip(self, fitted_sspc, artifact):
        rebuilt = artifact.to_result()
        original = fitted_sspc.result_
        assert rebuilt.objective == original.objective
        assert rebuilt.n_iterations == original.n_iterations
        assert rebuilt.algorithm == original.algorithm
        assert rebuilt.parameters == original.parameters


class TestCapture:
    def test_statistics_match_member_blocks(self, small_dataset, artifact):
        for cluster in artifact.clusters:
            block = small_dataset.data[cluster.members]
            np.testing.assert_array_equal(cluster.mean, block.mean(axis=0))
            np.testing.assert_array_equal(cluster.median, np.median(block, axis=0))
            np.testing.assert_array_equal(cluster.variance, block.var(axis=0, ddof=1))

    def test_projections_match_member_blocks(self, small_dataset, artifact):
        assert artifact.includes_projections
        for cluster in artifact.clusters:
            expected = small_dataset.data[np.ix_(cluster.members, cluster.dimensions)]
            np.testing.assert_array_equal(cluster.member_projections, expected)

    def test_capture_reuses_the_fit_statistics_cache(self, fitted_sspc):
        passes_before = fitted_sspc.stats_cache_.n_stat_passes
        fitted_sspc.to_artifact()
        assert fitted_sspc.stats_cache_.n_stat_passes == passes_before

    def test_projections_optional(self, fitted_sspc):
        artifact = fitted_sspc.to_artifact(include_projections=False)
        assert not artifact.includes_projections
        assert all(c.member_projections is None for c in artifact.clusters)

    def test_from_result_rebuilds_threshold_from_parameters(self, small_dataset):
        result = ClusteringResult.from_labels(
            np.repeat(np.arange(3), 80),
            small_dataset.n_dimensions,
            parameters={"p": 0.05},
        )
        artifact = ModelArtifact.from_result(result, small_dataset.data)
        assert artifact.threshold_description == {"scheme": "p", "p": 0.05}

    def test_from_result_rejects_mismatched_data(self, small_dataset, fitted_sspc):
        with pytest.raises(ValueError, match="shape"):
            ModelArtifact.from_result(fitted_sspc.result_, small_dataset.data[:, :10])


class TestPersistence:
    def test_save_load_round_trip_is_exact(self, artifact, tmp_path):
        path = artifact.save(tmp_path / "model")
        loaded = load_artifact(path)
        assert loaded.schema_version == SCHEMA_VERSION
        assert loaded.algorithm == artifact.algorithm
        assert loaded.objective == artifact.objective
        assert loaded.n_iterations == artifact.n_iterations
        assert loaded.threshold_description == artifact.threshold_description
        assert loaded.parameters == artifact.parameters
        np.testing.assert_array_equal(loaded.labels, artifact.labels)
        np.testing.assert_array_equal(loaded.global_variance, artifact.global_variance)
        for a, b in zip(loaded.clusters, artifact.clusters):
            np.testing.assert_array_equal(a.dimensions, b.dimensions)
            np.testing.assert_array_equal(a.members, b.members)
            np.testing.assert_array_equal(a.representative, b.representative)
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.median, b.median)
            np.testing.assert_array_equal(a.variance, b.variance)
            np.testing.assert_array_equal(a.member_projections, b.member_projections)
            assert a.score == b.score

    def test_loaded_result_round_trip(self, fitted_sspc, artifact, tmp_path):
        loaded = load_artifact(artifact.save(tmp_path / "model"))
        np.testing.assert_array_equal(
            loaded.to_result().labels(), fitted_sspc.result_.labels()
        )

    def test_manifest_is_self_describing(self, artifact, tmp_path):
        path = artifact.save(tmp_path / "model")
        with (path / MANIFEST_NAME).open() as handle:
            manifest = json.load(handle)
        assert manifest["format"] == ARTIFACT_FORMAT
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["n_clusters"] == artifact.n_clusters
        assert manifest["threshold"] == artifact.threshold_description

    def test_newer_schema_is_refused(self, artifact, tmp_path):
        path = artifact.save(tmp_path / "model")
        manifest_path = path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="newer"):
            load_artifact(path)

    def test_wrong_format_is_refused(self, artifact, tmp_path):
        path = artifact.save(tmp_path / "model")
        manifest_path = path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "something-else"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format"):
            load_artifact(path)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_artifact(tmp_path / "nowhere")

    def test_missing_cluster_arrays_raise(self, artifact, tmp_path):
        path = artifact.save(tmp_path / "model")
        manifest_path = path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["n_clusters"] = artifact.n_clusters + 1
        manifest_path.write_text(json.dumps(manifest))
        stamp_json_file(manifest_path)  # re-stamp: the edit is deliberate
        with pytest.raises(ValueError, match="incomplete"):
            load_artifact(path)


class TestLegacyBackendParameter:
    """Artifacts saved by 1.6.0 from ``SSPC(backend="threaded")`` carry
    ``parameters["backend"]``.  The key names a kernel that no longer
    exists; it must stay inert metadata that neither blocks loading nor
    changes what the index serves."""

    @pytest.fixture()
    def paths(self, artifact, tmp_path):
        """``(legacy, plain)`` artifact directories differing only in the key."""
        plain_path = artifact.save(tmp_path / "plain")
        legacy = load_artifact(plain_path)
        legacy.parameters["backend"] = "threaded"
        return legacy.save(tmp_path / "legacy"), plain_path

    def test_legacy_artifact_loads_with_the_key_kept(self, paths):
        legacy_path, _ = paths
        loaded = load_artifact(legacy_path)
        assert loaded.parameters["backend"] == "threaded"

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_index_labels_match_artifact_without_the_key(
        self, paths, small_dataset, rng, mmap_mode
    ):
        legacy_path, plain_path = paths
        data = small_dataset.data
        queries = np.vstack([
            data,
            rng.normal(loc=data.mean(axis=0), scale=3 * data.std(axis=0),
                       size=(50, data.shape[1])),
        ])
        legacy = ProjectedClusterIndex.from_path(legacy_path, mmap_mode=mmap_mode)
        plain = ProjectedClusterIndex.from_path(plain_path, mmap_mode=mmap_mode)
        np.testing.assert_array_equal(legacy.predict(queries), plain.predict(queries))
        assert np.array_equal(legacy.gains_matrix(queries), plain.gains_matrix(queries))


class TestThresholdReconstruction:
    def test_variance_ratio_scheme(self):
        fitted = VarianceRatioThreshold(m=0.3).fit_from_variance(np.asarray([1.0, 4.0]))
        rebuilt = threshold_from_description(fitted.describe(), fitted.global_variance)
        np.testing.assert_array_equal(rebuilt.values(10), fitted.values(10))

    def test_chi_square_scheme(self):
        fitted = ChiSquareThreshold(p=0.05).fit_from_variance(np.asarray([1.0, 4.0]))
        rebuilt = threshold_from_description(fitted.describe(), fitted.global_variance)
        np.testing.assert_array_equal(rebuilt.values(25), fitted.values(25))

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError, match="scheme"):
            threshold_from_description({"scheme": "q"}, np.ones(3))

    def test_artifact_threshold_matches_fit(self, fitted_sspc, artifact):
        rebuilt = artifact.threshold()
        np.testing.assert_array_equal(
            rebuilt.values(50), fitted_sspc.threshold_.values(50)
        )


class TestValidation:
    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            ModelArtifact(
                clusters=[],
                labels=np.zeros(3, dtype=int),
                n_objects=4,
                n_dimensions=2,
                threshold_description={"scheme": "m", "m": 0.5},
                global_variance=np.ones(2),
            )

    def test_vector_length_mismatch_rejected(self):
        cluster_kwargs = dict(
            dimensions=np.asarray([0]),
            members=np.asarray([0, 1]),
            representative=np.ones(3),
            mean=np.ones(3),
            median=np.ones(3),
            variance=np.ones(3),
        )
        from repro.serving.artifact import ClusterModel

        with pytest.raises(ValueError, match="cluster 0"):
            ModelArtifact(
                clusters=[ClusterModel(**cluster_kwargs)],
                labels=np.zeros(2, dtype=int),
                n_objects=2,
                n_dimensions=2,
                threshold_description={"scheme": "m", "m": 0.5},
                global_variance=np.ones(2),
            )
