"""Offline fsck checkers: clean images stay silent, injections get caught.

The three canonical corruption classes -- a leaked block, an
over-counted link, a dangling dirent -- are injected into otherwise
healthy ext2 images; each must be caught by exactly its checker class
and nothing else.  Clean images of every backend must produce zero
findings, so the oracle never cries wolf during exploration.
"""

from __future__ import annotations

import pytest

from repro.analysis import check_image, check_images, check_mounted, detect_fstype
from repro.analysis.findings import Finding, finding_from_dict
from repro.cli import main as cli_main
from repro.errors import EINVAL, FsError
from repro.fs.ext2 import ROOT_INO, Ext2FileSystemType, MountedExt2
from repro.fs.jffs2 import NODE_MAGIC
from repro.kernel.fdtable import O_CREAT, O_WRONLY
from repro.kernel.stat import DT_REG


def populate(fx) -> None:
    """A small, representative tree: dirs, files, links where supported."""
    k = fx.kernel
    k.mkdir(fx.path("/d"))
    k.mkdir(fx.path("/d/sub"))
    fd = k.open(fx.path("/d/f"), O_CREAT | O_WRONLY)
    k.write(fd, b"payload " * 64)
    k.close(fd)
    fd = k.open(fx.path("/top"), O_CREAT | O_WRONLY)
    k.write(fd, b"x")
    k.close(fd)
    if fx.supports_links:
        k.link(fx.path("/d/f"), fx.path("/d/hard"))
        k.symlink("f", fx.path("/d/sym"))


def synced_image(fx) -> bytes:
    populate(fx)
    fx.fs().sync()
    return fx.device.snapshot_image()


# ------------------------------------------------------------ clean images --
def test_clean_image_has_no_findings(mounted_block_fs):
    image = synced_image(mounted_block_fs)
    findings = check_image(image)
    assert findings == [], [f.describe() for f in findings]


def test_clean_tree_passes_generic_checker(mounted_fs):
    populate(mounted_fs)
    findings = check_mounted(mounted_fs.fs())
    assert findings == [], [f.describe() for f in findings]


def test_detect_fstype(mounted_block_fs):
    image = synced_image(mounted_block_fs)
    assert detect_fstype(image) == mounted_block_fs.name
    assert detect_fstype(b"\x00" * 64) is None


def test_unknown_image_reports_unknown_format():
    findings = check_image(b"garbage!" * 16)
    assert [f.invariant for f in findings] == ["unknown-format"]


# ------------------------------------- corruption-injection fixtures (ext2) --
@pytest.fixture
def ext2_fx(mount_factory):
    return mount_factory("ext2")


@pytest.fixture
def leaked_block_image(ext2_fx) -> bytes:
    """An allocated block no reachable inode references."""
    populate(ext2_fx)
    fs = ext2_fx.fs()
    fs.block_bitmap.set(fs.block_bitmap.find_free())
    fs.sync()
    return ext2_fx.device.snapshot_image()


@pytest.fixture
def overcounted_nlink_image(ext2_fx) -> bytes:
    """A file whose stored nlink exceeds its dirent count."""
    populate(ext2_fx)
    fs = ext2_fx.fs()
    ino = fs.lookup(ROOT_INO, "top")
    inode = fs._load_inode(ino)
    inode.nlink += 1
    fs._store_inode(inode)
    fs.sync()
    return ext2_fx.device.snapshot_image()


@pytest.fixture
def dangling_dirent_image(ext2_fx) -> bytes:
    """A dirent pointing at an inode that was never allocated."""
    populate(ext2_fx)
    fs = ext2_fx.fs()
    root = fs._load_inode(ROOT_INO)
    fs._dir_add_entry(root, "ghost", 55, DT_REG)
    fs.sync()
    return ext2_fx.device.snapshot_image()


def test_leaked_block_caught_by_exactly_its_class(leaked_block_image):
    findings = check_image(leaked_block_image)
    assert {f.invariant for f in findings} == {"block-leak"}
    (finding,) = findings
    assert finding.checker == "fsck.ext2"
    assert finding.severity == "error"
    assert finding.location.startswith("block ")


def test_overcounted_nlink_caught_by_exactly_its_class(overcounted_nlink_image):
    findings = check_image(overcounted_nlink_image)
    assert {f.invariant for f in findings} == {"nlink-mismatch"}
    (finding,) = findings
    assert finding.detail["stored"] == finding.detail["recomputed"] + 1


def test_dangling_dirent_caught_by_exactly_its_class(dangling_dirent_image):
    findings = check_image(dangling_dirent_image)
    assert {f.invariant for f in findings} == {"dangling-dirent"}
    (finding,) = findings
    assert finding.detail["name"] == "ghost"


def test_finding_serialisation_roundtrip(leaked_block_image):
    (finding,) = check_image(leaked_block_image)
    clone = finding_from_dict(finding.to_dict())
    assert clone == finding
    assert "block-leak" in clone.describe()


# ------------------------------------------------- other backends' checkers --
def test_jffs2_crc_corruption_detected(mount_factory):
    fx = mount_factory("jffs2")
    image = bytearray(synced_image(fx))
    # flip a data byte inside the first node's body (past the header)
    assert int.from_bytes(image[:2], "little") == NODE_MAGIC
    image[20] ^= 0xFF
    findings = check_image(bytes(image))
    assert "node-crc" in {f.invariant for f in findings}


def test_xfs_leaked_block_detected(mount_factory):
    fx = mount_factory("xfs")
    populate(fx)
    fs = fx.fs()
    fs.block_bitmap.set(fs.block_bitmap.find_free(start=fs.geo.first_data_block))
    fs.sync()
    findings = check_image(fx.device.snapshot_image())
    assert {f.invariant for f in findings} == {"block-leak"}
    assert findings[0].checker == "fsck.xfs"


# -------------------------------------------------------- truncated images --
def test_truncated_image_yields_clean_finding(ext2_fx):
    image = synced_image(ext2_fx)
    findings = check_image(image[: len(image) // 4], fstype="ext2")
    assert "superblock-geometry" in {f.invariant for f in findings}


def test_mounting_truncated_image_raises_einval(ext2_fx, clock):
    from repro.storage import RAMBlockDevice

    image = synced_image(ext2_fx)
    small = RAMBlockDevice(len(image) // 4, clock=clock, name="small")
    small.restore_image(image[: len(image) // 4])
    with pytest.raises(FsError) as excinfo:
        MountedExt2(small, 1024)
    assert excinfo.value.errno == EINVAL
    assert "truncated" in str(excinfo.value)


# ------------------------------------------------------------ many images --
def test_pool_preserves_input_order(mount_factory, leaked_block_image):
    clean = synced_image(mount_factory("ext4"))
    jobs = [clean, leaked_block_image, clean, leaked_block_image]
    results = check_images(jobs)
    assert [sorted({f.invariant for f in r}) for r in results] == [
        [], ["block-leak"], [], ["block-leak"],
    ]


def test_pool_accepts_job_dicts(leaked_block_image):
    results = check_images([{"image": leaked_block_image, "fstype": "ext2"}])
    assert [f.invariant for f in results[0]] == ["block-leak"]


# --------------------------------------------------------------------- CLI --
def test_cli_fsck_exit_codes(tmp_path, leaked_block_image, mount_factory,
                             capsys):
    clean = synced_image(mount_factory("ext2"))
    good = tmp_path / "good.img"
    bad = tmp_path / "bad.img"
    good.write_bytes(clean)
    bad.write_bytes(leaked_block_image)
    assert cli_main(["fsck", str(good)]) == 0
    assert cli_main(["fsck", str(good), str(bad)]) == 1
    out = capsys.readouterr().out
    assert "clean" in out and "block-leak" in out


def test_finding_validation():
    with pytest.raises(ValueError):
        Finding(checker="x", invariant="y", message="z", severity="fatal")
