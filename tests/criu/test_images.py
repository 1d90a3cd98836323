import numpy as np
import pytest

from repro.criu.images import SnapshotImage, VMADescriptor
from repro.mem.address_space import PROT_READ, PROT_WRITE
from repro.mem.layout import MB
from repro.workloads.functions import FUNCTIONS, function_by_name


@pytest.mark.parametrize("profile", FUNCTIONS, ids=lambda p: p.name)
def test_from_profile_covers_exactly_image(profile):
    image = SnapshotImage.from_profile(profile)
    assert image.total_pages == profile.image_pages
    assert image.nbytes == pytest.approx(profile.mem_bytes, abs=4096)


def test_vma_count_tracks_profile():
    profile = function_by_name("IR")
    image = SnapshotImage.from_profile(profile)
    assert len(image.vmas) == pytest.approx(profile.n_vmas, rel=0.25)


def test_metadata_is_small():
    """§4: an mm-template's metadata is < 1 MB even for large images."""
    image = SnapshotImage.from_profile(function_by_name("IR"))
    assert image.metadata_bytes < 2 * MB
    small = SnapshotImage.from_profile(function_by_name("JS"))
    assert small.metadata_bytes < 0.5 * MB


def test_runtime_vmas_read_only():
    image = SnapshotImage.from_profile(function_by_name("JS"))
    for vma in image.vmas:
        if vma.name.startswith(("runtime", "lib")):
            assert not vma.writable
        if vma.name in ("heap",) or vma.name.startswith("stack"):
            assert vma.writable


def test_content_slices_partition_ids():
    image = SnapshotImage.from_profile(function_by_name("DH"))
    space = image.build_address_space()
    assert [v.npages for v in space.vmas] == [v.npages for v in image.vmas]
    rebuilt = np.concatenate([np.asarray(vma.content) for vma in space.vmas])
    assert np.array_equal(rebuilt, image.content_ids)


def test_content_mismatch_rejected():
    with pytest.raises(ValueError):
        SnapshotImage("x", [VMADescriptor("a", 4, PROT_READ)],
                      np.arange(3), n_threads=1, n_fds=0)


def test_build_address_space_layout():
    image = SnapshotImage.from_profile(function_by_name("CR"))
    space = image.build_address_space()
    assert space.total_pages == image.total_pages
    assert [v.name for v in space.vmas] == [v.name for v in image.vmas]
    # Content ids preserved for later dedup.
    assert np.array_equal(space.content_image(), image.content_ids)
    # Nothing resident yet.
    assert space.local_pages == 0


def test_heap_is_majority_of_private_pages():
    image = SnapshotImage.from_profile(function_by_name("VP"))
    heap = next(v for v in image.vmas if v.name == "heap")
    private = sum(v.npages for v in image.vmas if v.writable)
    assert heap.npages > 0.6 * private


def test_thread_and_fd_counts_carried():
    profile = function_by_name("PR")
    image = SnapshotImage.from_profile(profile)
    assert image.n_threads == 395
    assert image.n_fds == profile.n_fds
