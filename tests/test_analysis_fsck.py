"""Offline fsck checkers: clean images stay silent, injections get caught.

The three canonical corruption classes -- a leaked block, an
over-counted link, a dangling dirent -- are injected into otherwise
healthy ext2, ext4 and xfs images; each must be caught by exactly its
checker class and nothing else.  Clean images of every backend must produce zero
findings, so the oracle never cries wolf during exploration.
"""

from __future__ import annotations

import struct

import pytest

from repro.analysis import check_image, check_mounted, detect_fstype
from repro.analysis.findings import Finding, finding_from_dict
from repro.cli import main as cli_main
from repro.errors import EINVAL, FsError
from repro.fs.ext2 import ROOT_INO, Ext2FileSystemType, MountedExt2
from repro.fs.jffs2 import (
    DIRENT_FMT,
    HEADER_FMT,
    HEADER_SIZE,
    INODE_FMT,
    NODE_MAGIC,
    NODETYPE_DIRENT,
    NODETYPE_INODE,
    Jffs2FileSystemType,
    node_crc,
)
from repro.kernel.fdtable import O_CREAT, O_WRONLY
from repro.kernel import Kernel
from repro.kernel.stat import DT_DIR, DT_REG
from repro.storage import RAMBlockDevice


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


# ------------------------------------------------ corruption injections --
CORRUPTIBLE = ["ext2", "ext4", "xfs"]


def leak_block(fs) -> None:
    """An allocated block no reachable inode references."""
    fs.block_bitmap.set(fs.block_bitmap.find_free(start=fs.geo.first_data_block))


def overcount_nlink(fs) -> None:
    """A file whose stored nlink exceeds its dirent count."""
    inode = fs._load_inode(fs.lookup(fs.ROOT_INO, "top"))
    inode.nlink += 1
    fs._store_inode(inode)


def dangle_dirent(fs) -> None:
    """A dirent pointing at an inode that was never allocated."""
    fs._dir_add_entry(fs._load_inode(fs.ROOT_INO), "ghost", 55, DT_REG)


def corrupted_image(fx, corrupt) -> bytes:
    populate(fx)
    fs = fx.fs()
    corrupt(fs)
    fs.sync()
    return fx.device.snapshot_image()


@pytest.fixture
def ext2_fx(mount_factory):
    return mount_factory("ext2")


@pytest.fixture
def leaked_block_image(ext2_fx) -> bytes:
    return corrupted_image(ext2_fx, leak_block)


@pytest.mark.parametrize("name", CORRUPTIBLE)
def test_leaked_block_caught_by_exactly_its_class(name, mount_factory):
    findings = check_image(corrupted_image(mount_factory(name), leak_block))
    assert {f.invariant for f in findings} == {"block-leak"}
    (finding,) = findings
    assert finding.checker == f"fsck.{name}"
    assert finding.severity == "error"
    assert finding.location.startswith("block ")


@pytest.mark.parametrize("name", CORRUPTIBLE)
def test_overcounted_nlink_caught_by_exactly_its_class(name, mount_factory):
    findings = check_image(corrupted_image(mount_factory(name), overcount_nlink))
    assert {f.invariant for f in findings} == {"nlink-mismatch"}
    (finding,) = findings
    assert finding.detail["stored"] == finding.detail["recomputed"] + 1


@pytest.mark.parametrize("name", CORRUPTIBLE)
def test_dangling_dirent_caught_by_exactly_its_class(name, mount_factory):
    findings = check_image(corrupted_image(mount_factory(name), dangle_dirent))
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


# ---------------------------------------- the live check, every driver --
# ``check_consistency`` is the same tree audit over what each driver
# keeps: faults are seeded behind the driver's back, through its internals.
GHOST_INO = 55  # allocated by no file system after ``populate``


def link_behind_the_back(fx, dir_ino: int, name: str, ino: int, dtype: int) -> None:
    if fx.filesystem is not None:  # VeriFS, served over FUSE
        fx.filesystem._get(dir_ino).entries[name] = ino
    elif fx.name == "jffs2":
        fx.fs()._dirs.setdefault(dir_ino, {})[name] = (ino, dtype)
    else:
        fs = fx.fs()
        fs._dir_add_entry(fs._load_inode(dir_ino), name, ino, dtype)


def ino_of(fx, rel: str) -> int:
    return fx.kernel.stat(fx.path(rel)).st_ino


def overcount_live_nlink(fx) -> None:
    """``overcount_nlink`` on every driver: ``/top`` gains a phantom link."""
    if fx.filesystem is not None:
        fx.filesystem._get(ino_of(fx, "/top")).nlink += 1
    elif fx.name == "jffs2":
        # jffs2 stores no link count: getattr counts every dirent in the
        # index, so one more in a dead directory's map raises it
        link_behind_the_back(fx, 999, "extra", ino_of(fx, "/top"), DT_REG)
    else:
        overcount_nlink(fx.fs())


@pytest.mark.parametrize("fault,expected", [
    ("dangling-dirent", f"points at unallocated ino {GHOST_INO}"),
    ("nlink-off-by-one", "stored nlink 2, recomputed 1"),
    ("directory-with-two-parents", "is reachable from both"),
])
def test_live_check_reports_seeded_fault(mounted_fs, fault, expected):
    fx = mounted_fs
    populate(fx)
    assert fx.fs().check_consistency() == []
    root = ino_of(fx, "")
    if fault == "dangling-dirent":
        link_behind_the_back(fx, root, "ghost", GHOST_INO, DT_REG)
    elif fault == "nlink-off-by-one":
        overcount_live_nlink(fx)
    else:
        link_behind_the_back(fx, root, "again", ino_of(fx, "/d/sub"), DT_DIR)
    problems = fx.fs().check_consistency()
    if fx.filesystem is not None or fx.name == "jffs2":
        # no inode map: a dirent to a missing inode reads as a zeroed one
        expected = expected.replace("unallocated", "zeroed")
    assert any(expected in problem for problem in problems), problems


@pytest.mark.parametrize("name", CORRUPTIBLE)
def test_live_check_reports_claimed_block_free_in_bitmap(name, mount_factory):
    fx = mount_factory(name)
    populate(fx)
    fs = fx.fs()
    block = next(fs._mapped_blocks(fs._load_inode(ino_of(fx, "/d/f"))))
    fs.block_bitmap.clear(block)
    assert fs.check_consistency() == [
        f"block {block} (ino {ino_of(fx, '/d/f')}) in use but free in bitmap"]


@pytest.mark.parametrize("name", ["ext2", "ext4"])
def test_live_check_reports_block_claimed_twice(name, mount_factory):
    fx = mount_factory(name)
    populate(fx)
    fs = fx.fs()
    data, top = (fs._load_inode(ino_of(fx, rel)) for rel in ("/d/f", "/top"))
    top.direct[0] = data.direct[0]
    fs._store_inode(top)
    problems = fs.check_consistency()
    assert any(f"block {data.direct[0]} multiply claimed" in problem
               for problem in problems), problems


def test_live_check_reports_dirents_of_a_dead_jffs2_inode(mount_factory):
    fx = mount_factory("jffs2")
    populate(fx)
    link_behind_the_back(fx, 999, "orphaned", ino_of(fx, "/d/sub"), DT_DIR)
    assert "directory map for dead inode 999 is non-empty" in (
        fx.fs().check_consistency())


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


# ------------------------------------------------------------ one image --
def test_pool_preserves_input_order(mount_factory, leaked_block_image):
    clean = synced_image(mount_factory("ext4"))
    jobs = [clean, leaked_block_image, clean, leaked_block_image]
    results = [check_image(image) for image in jobs]
    assert [sorted({f.invariant for f in r}) for r in results] == [
        [], ["block-leak"], [], ["block-leak"],
    ]


def test_pool_accepts_job_dicts(leaked_block_image):
    findings = check_image(leaked_block_image, fstype="ext2")
    assert [f.invariant for f in findings] == ["block-leak"]


# ---------------------------------------------------------- hostile input --
def assert_reported(image: bytes, invariant: str, tmp_path) -> None:
    """Findings, not an exception; and ``repro fsck`` exits 1 on it."""
    assert invariant in {f.invariant for f in check_image(image)}
    path = tmp_path / "hostile.img"
    path.write_bytes(image)
    assert cli_main(["fsck", str(path)]) == 1


@pytest.mark.parametrize("name", ["ext2", "xfs"])
def test_non_utf8_dirent_name_is_reported(name, mount_factory, tmp_path):
    fx = mount_factory(name)
    fx.kernel.mkdir(fx.path("/dirname"))
    fx.fs().sync()
    image = bytearray(fx.device.snapshot_image())
    image[image.index(b"dirname")] ^= 0x80
    assert_reported(bytes(image), "dirent-name-invalid", tmp_path)


def grow_ext2_root(size):
    def corrupt(fs):
        root = fs._load_inode(ROOT_INO)
        root.size = size
        fs._store_inode(root)
    return corrupt


def stretch_xfs_root_extent(fs):
    root = fs._load_inode(fs.ROOT_INO)
    start, device_start, _count = root.extents[0]
    root.extents[0] = (start, device_start, 1 << 20)
    fs._store_inode(root)


@pytest.mark.parametrize("name,corrupt,invariant", [
    ("ext2", grow_ext2_root(1 << 34), "dir-size-unmapped"),
    ("ext2", grow_ext2_root(1 << 24), "dir-size-unmapped"),
    ("xfs", stretch_xfs_root_extent, "extent-out-of-range"),
], ids=["ext2-size-2^34", "ext2-size-2^24", "xfs-extent-2^20"])
def test_corrupt_size_reads_stay_inside_the_image(name, corrupt, invariant,
                                                  mount_factory, tmp_path):
    image = corrupted_image(mount_factory(name), corrupt)
    assert_reported(image, invariant, tmp_path)


def test_block_size_comes_from_the_superblock(clock, tmp_path, capsys):
    fstype = Ext2FileSystemType(block_size=4096)
    device = RAMBlockDevice(256 * 1024, clock=clock, name="ram0")
    fstype.mkfs(device)
    kernel = Kernel(clock)
    kernel.mount(fstype, device, "/mnt")
    kernel.mkdir("/mnt/d")
    fd = kernel.open("/mnt/d/f", O_CREAT | O_WRONLY)
    kernel.write(fd, b"payload " * 1024)
    kernel.close(fd)
    kernel.mount_at("/mnt").fs.sync()
    image = device.snapshot_image()
    assert check_image(image) == []
    path = tmp_path / "ext2-4k.img"
    path.write_bytes(image)
    assert cli_main(["fsck", str(path)]) == 0
    assert "clean" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["ext2", "xfs"])
def test_unusable_stored_block_size_is_reported(name, mount_factory, tmp_path):
    image = bytearray(synced_image(mount_factory(name)))
    image[12:16] = bytes(4)  # the superblock's block size field
    assert_reported(bytes(image), "superblock-geometry", tmp_path)


def jffs2_with_node(fx, nodetype: int, body: bytes):
    """A populated SimJFFS2 device with one more whole, CRC-valid node
    appended at the write cursor."""
    populate(fx)
    fs = fx.fs()
    address = fs._write_block * fs.mtd.erase_block_size + fs._write_offset
    header = struct.pack(HEADER_FMT, NODE_MAGIC, nodetype,
                         HEADER_SIZE + len(body), node_crc(body))
    fx.device.write(address, header + body)
    return fx.device


@pytest.mark.parametrize("nodetype,body,invariant", [
    (NODETYPE_INODE, b"\x07\x00", "node-length-mismatch"),
    (NODETYPE_DIRENT, struct.pack(DIRENT_FMT, 1, 999, 2, DT_REG, 2) + b"\xff\xfe",
     "dirent-name-invalid"),
    (NODETYPE_INODE, struct.pack(INODE_FMT, 99, 999, 0o100644, 0, 0, 0, 0.0, 0.0,
                                 0.0, 0, 7) + b"\x02\x01\x00\xff\xfex\x00",
     "xattr-name-invalid"),
], ids=["2-byte-inode", "non-utf8-dirent", "non-utf8-xattr-name"])
def test_hostile_jffs2_node_mounts_and_is_reported(nodetype, body, invariant,
                                                   mount_factory):
    device = jffs2_with_node(mount_factory("jffs2"), nodetype, body)
    # the mount drops the node as obsolete and keeps the rest of the log
    mounted = Jffs2FileSystemType().mount(device)
    root = mounted.ROOT_INO
    assert sorted(entry.name for entry in mounted.getdents(root)) == ["d", "top"]
    assert mounted.read(mounted.lookup(root, "top"), 0, 8) == b"x"
    findings = check_image(device.snapshot_image())
    assert [f.invariant for f in findings] == [invariant]


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
