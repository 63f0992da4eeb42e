"""Tests for operator checkpointing (snapshot / restore)."""

import base64
import pickle
import zlib

import pytest

from conftest import final_values, run_operator, shuffled_with_disorder
from repro import GeneralSlicingOperator, Record, Watermark
from repro.aggregations import Max, Median, Sum
from repro.baselines import AggregateTreeOperator, TupleBufferOperator
from repro.reference import reference_results
from repro.runtime.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CHECKPOINT_MAGIC,
    CheckpointFormatError,
    SnapshotError,
    restore,
    snapshot,
)
from repro.windows import CountTumblingWindow, SessionWindow, SlidingWindow, TumblingWindow


def build_operator():
    operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=10_000)
    operator.add_query(TumblingWindow(10), Sum())
    operator.add_query(SessionWindow(5), Sum())
    return operator


class TestSnapshotRestore:
    def test_roundtrip_preserves_future_emissions(self):
        base = [Record(t, float(t % 3)) for t in range(0, 120, 2)]
        stream = shuffled_with_disorder(base, 0.3, 12, seed=4)
        split = len(stream) // 2

        original = build_operator()
        run_operator(original, stream[:split])
        clone = restore(snapshot(original))

        tail = stream[split:] + [Watermark(10_000)]
        original_results = final_values(original, tail)
        clone_results = final_values(clone, tail)
        assert original_results == clone_results
        assert original_results  # the comparison is not vacuous

    def test_snapshot_is_deep(self):
        operator = build_operator()
        run_operator(operator, [Record(t, 1.0) for t in range(15)])
        blob = snapshot(operator)
        run_operator(operator, [Record(t, 1.0) for t in range(15, 40)])
        clone = restore(blob)
        # The clone must still be at the snapshot point: feeding the same
        # suffix yields the same results the original produced.
        suffix = [Record(t, 1.0) for t in range(15, 40)] + [Watermark(35)]
        results = run_operator(clone, suffix)
        assert any(r.end == 30 for r in results)

    def test_restore_rejects_non_operator(self):
        # A well-formed blob whose payload is not an operator: the
        # header check passes, the type check must still catch it --
        # and as a format violation, not a bare TypeError, so callers
        # can handle every corruption mode with one except clause.
        blob = (
            CHECKPOINT_MAGIC
            + CHECKPOINT_FORMAT_VERSION.to_bytes(2, "big")
            + pickle.dumps({"not": "an operator"})
        )
        with pytest.raises(CheckpointFormatError):
            restore(blob)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: TupleBufferOperator(stream_in_order=False, allowed_lateness=10_000),
            lambda: AggregateTreeOperator(stream_in_order=False, allowed_lateness=10_000),
        ],
    )
    def test_baselines_snapshot_too(self, factory):
        base = [Record(t, float(t)) for t in range(0, 100, 2)]
        operator = factory()
        operator.add_query(TumblingWindow(20), Sum())
        run_operator(operator, base[:25])
        clone = restore(snapshot(operator))
        tail = base[25:] + [Watermark(10_000)]
        assert final_values(operator, tail) == final_values(clone, tail)

    def test_record_retaining_workload_roundtrips(self):
        operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=10_000)
        operator.add_query(CountTumblingWindow(5), Sum())
        operator.add_query(TumblingWindow(20), Median())
        base = [Record(t, float(t % 7)) for t in range(0, 100, 2)]
        stream = shuffled_with_disorder(base, 0.3, 10, seed=2)
        run_operator(operator, stream[:30])
        clone = restore(snapshot(operator))
        tail = stream[30:] + [Watermark(10_000)]
        assert final_values(operator, tail) == final_values(clone, tail)


class TestCheckpointFormat:
    """Versioned header: restore() refuses anything it cannot trust."""

    def test_snapshot_carries_magic_and_version(self):
        blob = snapshot(build_operator())
        assert blob[:4] == CHECKPOINT_MAGIC
        assert int.from_bytes(blob[4:6], "big") == CHECKPOINT_FORMAT_VERSION

    def test_headered_blob_roundtrips(self):
        operator = build_operator()
        run_operator(operator, [Record(t, 1.0) for t in range(20)])
        clone = restore(snapshot(operator))
        assert isinstance(clone, GeneralSlicingOperator)

    def test_raw_pickle_rejected(self):
        # Pre-versioning blobs (bare pickle, no header) are incompatible.
        with pytest.raises(CheckpointFormatError, match="header"):
            restore(pickle.dumps(build_operator()))

    def test_truncated_blob_rejected(self):
        blob = snapshot(build_operator())
        with pytest.raises(CheckpointFormatError):
            restore(blob[:5])

    def test_future_version_rejected(self):
        blob = snapshot(build_operator())
        future = CHECKPOINT_MAGIC + (CHECKPOINT_FORMAT_VERSION + 1).to_bytes(2, "big")
        with pytest.raises(CheckpointFormatError, match="not supported"):
            restore(future + blob[6:])

    def test_corrupt_payload_rejected(self):
        blob = bytearray(snapshot(build_operator()))
        blob[10:30] = b"\x00" * 20  # bit-rot inside the pickle payload
        with pytest.raises(CheckpointFormatError, match="corrupt"):
            restore(bytes(blob))

    def test_non_bytes_rejected(self):
        with pytest.raises(CheckpointFormatError):
            restore("not bytes at all")


#: ``snapshot()`` of the operator built by ``_legacy_operator`` after
#: records ts 0..24, written by the commit before the eager store learned
#: to defer its head write (zlib + base85).  Its store pickle has no
#: ``head_dirty`` entry and its kernels are in sync with every slice.
_PRE_DEFERRED_HEAD_FRAME = (
    "c-oCt&2Jk;6nC2XqmCWNiBr<5R4quzh$;w9oT^k+)x)-"
    "~S|jyBJB)Y7eyi+<*_pKyM4%iRrP4?}bU1M3pFlmp-@_dVuDqGq-K@7gkVCxl-"
    "kUe?{od!3@q@dywHNhY-fq;)pByA?p2YiZoUr|P&Jrr(geZCWK8x@Wj04~GquHa3qu!`be^w"
    "`IC^t#Ojs*EGWyvw|J>^`GO?~hgSI>}twWQYtnow6DlMCPFO4c9iYgXAvYilh1$cvXs?%Hei"
    "$oF~Rd-%MP-Ld_8YUK(u8Uc%D0+ch9buG-4)0T~RI^|3#rzSfgqdZL*ImC-"
    "f?v$*`IB3qsL;LAynKw#a6n@CmOZ7yh6S+ZWvxLp4@Z(6yJ*%KZ<NFiJeOJl#aT;2~Wa}K3n"
    "!FfM)F%5Y9(>MGI6YMpXlEEe7q+ZZu;UD2;Iv`asljEqmQLV9xGvWp(j%)MK62LJ<Eq9G*;*"
    "r$n{h+}Di}!^dg`f>>=G}D=X2&6y0)rG1jd9V$n0^EFd7m+A}EcdGg)VJW<IuP5X8&uUc@-"
    "pciSxV1!3V_9IIDyi(_~h$ss{N&t%uqvM?f{ambR01;!MOE*CVMlX!}RCc*shBaW`aHK@r3x"
    "vS4bj5P$%z?^~&_=L$z(=>7o@H)@nCfq_AnMP>7$BxW}8!ypH_zeHArE<IA;d3@$^+l)VtTE"
    "Xq?=ikt%~xp251z)!VGvXAZiQD^Sy%{Pp2-"
    "f!Vqrw2^8i)8lAVY#j}tx*e4)>Mpq#jI8VQo6p%&6aju;!~3ZY2oLZeG+gnAedB!*!sF#Q$`"
    "?cGjT7%yl*FplWLOqbw^_7LsvJ+Zv8W$Bue?I;#Ev_Z@>Nsh_%O^TV`u`x2Gf>p6ysujyYV%"
    "srad8PDuI?;I~2&Noc_^vP-"
    ";ak}j%NPx!?jbj%Q>=Oeidtz61@I(e?%dOvcPA&04YdIIP7(43R=b<^ntn;4A!7rp>(0eWEe"
    "2nwiRlUJ42{P&(VF@R7ettxZU!{_z9cWARYvpugRg9xynnD~KbUOVqT-mj9s6kmsWoocklL3"
    "<@{&F3=SH%HKeh|ORa5vpFZ>0T`qCM|5&j-"
    "KJMg`E`QSz6W%ywPCn)mc2!0yDi+8mQU^zl115~n?DH+z@tE9fFguxdhcm^&^F-"
    "pxm)*9;Pa(A3X_)&CE$JfTcge%rwR*(vAVlfAdE?5=4!kJ+KBbg^`>K|#rQAzSaF8TPNkTfv"
    "zylR~b&N{}Q6!C22oy-98T=u?R#$%It?-<+Cr8Ds(OtjV{^#h^%j%>~t7L(A^4Q|P1E^>-"
    "#i|<SmEJ1u+*2x5wTF>?>z@DoAOJne>F_h`qV%lt$`e$fe-Y_-xeHb$A&9)zuII<bi$h7Bt8"
    "kG{iV0BFXKg^Ej^D=u30_@SIN9E~^{YT??n4|qlZsc#z=o}Mxi%f$Umjm6t3G-"
    "&C<Tto2dsV7|tw&tu2UXe43NaJa-+KCB$(uAXq7|YM-"
    "6VeAHqVuIS7}DDqx(@9d;ZkNCTGM3nWq`qwF6yC>wrvfsNrpn+=Xtlw!Ks#wsSIPb;jmAw#T"
    "AJy+v$$b~~!NUm=>u|IjS>)0n+wua&$Rq0iMgbxAc)WX1MAaj6S9v(I00uHzics4Ln#mP&9$"
    ";I@K;+f4<*Wp5fMAtHymE#Ew#&MZ`$HW|;8?MexxDz9tTlWHa!m|BGx{I0zyuN9l5x<j-"
    "`X~BfQWXJ0CD$68pM>Slg`q<w~jj2^^2u{uPiNDXq*HC;2|G+Ky7dHm8LbY^zT99R^oB<xRW"
    "diXqWA!yo%-1TF?F>plsS}-?nN$YWiQXPBBbbq1(pJ(=dyq~zx@=Y-"
    "65ukS;Py+bZA9eAjG;Z$zr+ccgfuzS^MlYN!GVvX>q<J={}08@g7*"
)


def _legacy_operator():
    operator = GeneralSlicingOperator(stream_in_order=True, eager=True)
    operator.add_query(SlidingWindow(40, 10), Sum())
    operator.add_query(SlidingWindow(40, 10), Max())
    return operator


def _legacy_record(ts):
    return Record(ts, float(ts % 7))


#: ``snapshot()`` of the operator built by ``_lagging_operator`` after
#: ``_LAGGING_HEAD``, written by the commit before the eager store kept a
#: lag index (zlib + base85).  Taken right after a late record landed in
#: the closed slice [40, 50), ahead of the watermark, and was written
#: through to the kernels; the open head [50, ...) has 5 records its
#: kernel leaves do not hold yet, and the store pickle says so with a
#: ``head_dirty`` entry.
_PRE_LAG_INDEX_FRAME = (
    "c-oa#-D@0G6yG%2kM3@=Nt4!E+F%uQ#S&>AN*_vTDVm3|BX)(pSTD0PclS&)AM1Q1X*EzET2i>"
    "shmI743L+?e;6EWg=!1WY55Cvmy?17^JFP<VkiGYuGrxPj&$%)9;970&Uj3^l-J1FnYZ0GB;f5"
    "VXd?TFj$V$S9W#YsZ4{-4Yo@=|o_`{r&J<i_#GTYDkVu=NOFJYghJi5bNCo_(Sro6a3&TfH!Y6"
    "{mTE3)ha%s6rFI1}}c<YyYplxU4zH*mt;OdQvr>1(_Zd#;1$GqE_(r<+=?RHNbXV4P59^hI3?^"
    "UP?AMmQS9Jjslj==$7>(}=Tee3*&VDXnr2)ahK;M?=ay&cs6E`aHXz-N@3R=vd=%#K%_RhCwDy"
    "YJe$PyfL(5*UrTJAoaCkqIKw&npg-dpox_k3*L<(oIc2g)XsfCi?pnbqE(|$Yet)n8#OvXr_&*"
    "wp>;8T-P+Um^tv%eZ&VR|uq7fFOJTq~E8#5Su++&+vB;b#oJ_c*=u)dDOAr$tf!T|bh+95$0|s"
    "f39*R1*#yA{^Wy|xz-Tb?N$8lyjqRo9bVcef2cObhQBfOjyE`dW2#G<C<VFaPE&7**ON)_qdII"
    ";W*3r8R{8S=voVwg^+sU{lin!J}WmM)+Ma*8_iCKpFXX<#eI%RHmAbPhB&3ZTBj_tXck-G_zr4"
    "*t)j;#kSUb2?w;hepkq<6?!qK>1!ZU#TTtxfw>=UT8VjD!fw5QbXE&D7rC<g|j4`c!0z`;M|E>"
    "Jn`H_-dD(qnH{D<!tykfLXsH6$I7@;C`e?XS-X}J>LDN?`hJ=q{dPF?Jr;34+_5}{IKqUnEWv$"
    "gA@uIu(7b_W$(j@GAWUA93UNmzIg;s<6q(-DF;b<1syH@PE1Cmh+fb*XQaU5#ACHhrTo(-44^Z"
    "C9`fR2Llpba|bM-x$Vpj|DKv7F?UM*wWKv~;)Q(2h;RAh9jx@=K=s+Zt(D^kTj&!HvyL2Kkjal"
    "+tvnfRWSpO1<KXr++1u3XgpaO=uRec+<0t0zW^cJ)z5Od@u4?DR{fII6GmIa9RoquULgQWZWaD"
    "m+F_C&n73_}wv9X;-~`<zD4wx?|E^h<t9+7bfjLkFo}ob)c*P<xGxpsrIrc>p<xPWgRGQ<tUe5"
    "8l?}EO`!CFaz017`eKVZ|BbRqi3yNRfLzEyHVReNW<ct*Ae_#dbc<}2cg-SAW%7I~mfu&&`7v@"
    "+XYEvyv}6qp-2jQ$8m6w7$Oa^uV~(my<d~zgqFIPMKw^tJi^4F;fZJgj*bJTNyj$?NH9|So-Gu"
    "wqtSW<C#;J65?k$rebKSdK=G%fiWJW{GBSCSmJ8pztdmt?qjiPZYCq5~h_%%JHbM%eWmA<9#3i"
    "9^{^n+66WF@r!b1*smXwpwcgMK#Y7xgOrYU<h2CT=;b&<EpDO^Upz58&6L=gSzZP@iMG=$1Cc5"
    "l!C;)PyMp>QqUWtgfo;>-qI?<mZo(i!r0xY*DCaq0%?ox=!W2Q@lO4Ch+4j8+jr28##d(cg6sD"
    "N|!~iN>u^xF`K(yRdz|OJ<o~CvmBskW^zx^q7|YNU1Dz0`42%CXK6~X%b>O&I_}6tpH^aPxurS"
    "T);o!cIKnf;T*lWixI1!E=*C%fu^#mWt2<ElfxedA_jmZV$10Xe73eSZ+8^rtr_ys-%T1|o!pL"
    "f17FjhiY)07?W?MF4&p3R~xP;lAQ)ke-n#wTNuwh}@u+xNLK^=vW&n2OaMK)mg!u7JPXMg9L?("
    "!iuZ{#IUyKhM+=wSlBI_0=3Z&7bu)$CNRYn5X3n>2KKTUuh()u_d$_GbD=bTy_^*^#mI)vzP3V"
    "4CF%knB;da`7>0s!pFBiqAp3fBVQB>^paR9zR%zR1LS-B;q@4*OzN^OX-)uacXCHgmvIimWp=n"
    "bAr^qOxs*ahYch+>;$|X$PIKRA*CJZFoxl3uVWrIrHn4$N7chGdusGv0RAqfe&k!xw${RmBCIo"
    "**B8^_#=oM6%1!"
)


def _lagging_operator():
    operator = GeneralSlicingOperator(stream_in_order=False, eager=True, allowed_lateness=100)
    operator.add_query(SlidingWindow(40, 10), Sum())
    operator.add_query(SlidingWindow(40, 10), Max())
    return operator


_LAGGING_HEAD = [_legacy_record(ts) for ts in range(55)] + [Watermark(40), _legacy_record(45)]
_LAGGING_TAIL = (
    [_legacy_record(ts) for ts in range(55, 80)]
    + [_legacy_record(12), Watermark(65), _legacy_record(33), _legacy_record(7)]
    + [_legacy_record(ts) for ts in range(80, 110)]
    + [Watermark(1_000)]
)


def _stale_leaves(store):
    """(slice index, function index) of every kernel leaf that lags."""
    return [
        (index, fn_index)
        for fn_index, kernel in enumerate(store.kernels)
        for index, slice_ in enumerate(store.slices)
        if kernel.leaf(index) != slice_.aggs[fn_index]
    ]


class TestFramesAcrossTheDeferredHeadWrite:
    def test_frame_written_before_the_mark_restores_and_continues(self):
        blob = zlib.decompress(base64.b85decode(_PRE_DEFERRED_HEAD_FRAME))
        assert blob.startswith(CHECKPOINT_MAGIC)
        clone = restore(blob)
        (store,) = clone.state_objects()
        # Genuinely an old pickle: every leaf written, and no closed one lags.
        assert "head_dirty" not in vars(store)
        assert store.lag_from is None and _stale_leaves(store) == []
        store.check_invariants()

        uninterrupted = _legacy_operator()
        run_operator(uninterrupted, [_legacy_record(ts) for ts in range(25)])
        tail = [_legacy_record(ts) for ts in range(25, 200)] + [Watermark(1_000)]
        expected = run_operator(uninterrupted, tail)
        assert run_operator(clone, tail) == expected
        assert len(expected) == 40
        store.check_invariants()

    def test_mid_slice_snapshot_keeps_the_mark(self):
        """A frame written now, between a late record and the next
        query, holds a closed slice and a head whose kernel leaves lag
        their partials; ``lag_from`` must come back with them or the next
        window would read a stale leaf."""
        original = _lagging_operator()
        run_operator(original, _LAGGING_HEAD)
        (store,) = original.state_objects()
        # The watermark's window [0, 40) wrote slices 0..3; [40, 50) has
        # closed since and took the late record, and nothing read it.
        assert store.lag_from == 4
        assert _stale_leaves(store) == [(4, 0), (5, 0), (4, 1), (5, 1)]
        clone = restore(snapshot(original))
        (restored,) = clone.state_objects()
        assert restored.lag_from == 4 and _stale_leaves(restored) == _stale_leaves(store)
        clone.check_invariants()
        assert run_operator(clone, _LAGGING_TAIL) == run_operator(original, _LAGGING_TAIL)

    def test_frame_written_mid_slice_by_an_ooo_operator_restores_and_continues(self):
        """The frame's late record was written through and its head
        flagged: restored, no closed slice lags, the head does, and the
        flag is gone.  It continues exactly like an uninterrupted run."""
        blob = zlib.decompress(base64.b85decode(_PRE_LAG_INDEX_FRAME))
        assert blob.startswith(CHECKPOINT_MAGIC) and b"head_dirty" in blob
        clone = restore(blob)
        (store,) = clone.state_objects()
        assert "head_dirty" not in vars(store) and store.lag_from is None
        assert _stale_leaves(store) == [(5, 0), (5, 1)]
        clone.check_invariants()

        uninterrupted = _lagging_operator()
        run_operator(uninterrupted, _LAGGING_HEAD)
        expected = run_operator(uninterrupted, _LAGGING_TAIL)
        assert any(result.is_update for result in expected)
        assert run_operator(clone, _LAGGING_TAIL) == expected
        clone.check_invariants()


#: ``snapshot()`` of the operator built by ``_guarded_operator`` after
#: records ts 0..24, written by the commit before the slicer published
#: its guard (zlib + base85): its slicer pickles have no ``open_until``
#: / ``open_until_count`` entry and hold the edge-cache switch under its
#: old plain name.
_PRE_GUARD_FRAME = (
    "c-nPV-HTgA6wli1Ce0?B-"
    "EG=twb)uLw56mk3O=^1Smm}6n`(Wj<7_g?x$e!q>Ag3*TVbIpT@xK`rMIA<prD|Fpf7%ZA@~7;q"
    "Aw!ScmE83Gjo&NWY_z0XU?48nKNh3`JFjmJG-"
    "2kx;lO9;X+D(vgC`7?^WuaFDhO~_&oG{7Rh~Qgo}w&bL_h9wjPaFqMOmN=c3K%sGMW2*a+F>uJE"
    "rgyAfG;$c&oUB8V<w{mz8lI&q)ZLo5cNT@NBT{g{FoV^w8sX5Drh-"
    "a7U*Ff$D*VYj{FVE;(YU5JMljpopi8ArISkRmH5XS`-"
    "J5MgAcWWFtU(Demdg?c3SB)o}N;KuAZGqjY>%}Az0yDg$?(fO#mB4>H4<%<>%ZO@Hl*%(O3g31a"
    "H?0O`3)w*rtj?9k2k&<bb!<t+icl=}k?e12zLb>?xR2aB7ICb6Yx*?oiR{#GwH|?>~RI*aEm&$V"
    "5AdKg9fDS^3?y;umu-w0ck)aPl&Ur3#cqo`J5S&I-l?B%Dy-"
    "r6ov|Jq|!$Mr2@Ud77LSOJUvt0&lh<b8b@D>JrInN!(TaR(B2m*!8iMAaw(e8v-"
    "luCe15Nr@d+(Azkj4VDo1T(9`cZH)}Q5O<~yxn156M_swD%ozJ18^6m<P2L@f>BiVLOgRRqFF9?"
    "H@j|K-"
    "xLy(4ne@0E<A6D4XDz=Yw$0Si$fu{FzF0+E5+pk+riu7WG+)y?!V~ytB%JT%M)uuuZ%}@e^2HER"
    "FPm|x8uNGU*=sQ8UYJBjvcD`0`Y+9+hlQ`DkUWh5K(=Yp^_V_3gqitD-"
    "{ub2;1#$i2Pg=aCXrbZEuY`47UdVTdFoUaW?o|Ja3k2W<}Ma%(-"
    "58NckfgI+X%cLEc=3E~6kiCa1Ok(O7v81H|IR#k2g`E2jt2nidXY@u0bknE=cZbHzf!m==S8rWN"
    "yu1VvzH?(5p#B~Y#?_iWSlgOG(f(J~H?$Gc@39x2ObPCZ~)j?0Y6?*K`ZH$xL;WoOpJ+t{zl-Da"
    "vbsmd&VhC^scSMBPcYF#Two>ig_{+F#i<g5KoT{ZhrSfwr&)~d8#rH$>_5_wfXOMsRQ^k^yxogR"
    "k@y05A@N!MB&=Dy4hs|GP$;HXZMBMGt0w7IJbbU<N=C=ZwNI@ssp>4;k6ov48-"
    ")p<LJB63o3!m0_Pn$HgQZt)J{HqV-lhfbmjn2AOUS&?1o+D@pdS7urQNgArH=(H?Os%|0qWRcZ{"
    "?Ifh6bmu07v8oy?QbNWlx;Cm4LajQ-"
    ">_L5vj26aaS~1UXmbTZhn>NZptCiy8$Ktwa4O)9<z>v74oH7zXX-"
    "(ac$@9tZ8x|cb<!gFgGt*(Eyn?tFO`DyJ!h}%yK(DDKx~2V@H?YK^syO=O9TwQ+C9*N!7g(Lw35"
    "-74$+{bi8B52k=Z%zsQ_%iE>-"
    "BEP@M>s!ej5RVZL_X7h<fzC3e}uR)KMZXC4w}$Rxr(LGD~%svO_g`S)C%;bmrJ(hsm<hONG9dd1"
    "JCM@hCw9O;Ldsz%y|p0dZk6=pj~0RVIhEjxW~OdONbpn5ex&oLCX<_2{UTvT|Es8LPAv-"
    "3VkZjv7IIQ>A099>--<y*&0IZf*nJdMweDvuN%WIyG!{72Q~laLuVFIXyINYxIcjVPy5_EL9U-"
    "=!oh<biPluK3(Y1<9&LfPZxXiB;1{%r$G6{j?vRpPp~yCw?NZL`bvTN(%`QY_-mKpuksjwrD+X|"
    ">-"
    "cZbiAnNH1Dypr4Rpq!E8Ea%ptC!nvq0y8&H_Da(D!abXMxV|gw6v!4|E>r;!ez~(0QQecS6s{ls"
    "`YB{1e;I^FWt&LWA_d_J;NM8}#9A=n~N7ozP{|GRmWtksSk10bJhJGwAs~y?{$R&gmL{FVaiHvi"
    "X-@?bG!h-Kc8rxNW$DUf1I{^!QCZeoK$v*5h~d_+34IPmfh4(+7R}kUmP7{#a{#GGwNK^-"
    "tAU7ANURuYK01&wKPmpT4ZpSJnagx<}vi=vzY;^d0?>u>a#Txv5l&e(KZDJ^BSF`*l>dQz+Zx^c"
    "$U|-{T^sKM<NfRgPbe0{Tl0tfhedR`o{zsKV-"
    "kHuU3?Ie5J(CcV9dMg?Bk(65RzN_QQv8Nbc_RrN4n-1qU!!b@bSyHfcNg!(-y"
)


def _guarded_operator():
    operator = GeneralSlicingOperator(stream_in_order=True)
    operator.add_query(TumblingWindow(10), Sum())
    operator.add_query(CountTumblingWindow(4), Sum())
    return operator


def _slicers(operator):
    return [chain.slicer for chain in operator._chain_list]


class TestFramesAcrossTheSlicerGuard:
    def test_frame_written_before_the_guard_restores_disarmed_and_continues(self):
        blob = zlib.decompress(base64.b85decode(_PRE_GUARD_FRAME))
        assert blob.startswith(CHECKPOINT_MAGIC)
        clone = restore(blob)
        for slicer in _slicers(clone):
            # Genuinely an old pickle: the class-level defaults disarm it.
            assert "open_until" not in vars(slicer)
            assert slicer.open_until == slicer.open_until_count == float("-inf")
            assert slicer.cache_edges is True
        clone.check_invariants()

        uninterrupted = _guarded_operator()
        head = [_legacy_record(ts) for ts in range(25)]
        run_operator(uninterrupted, head)
        tail = [_legacy_record(ts) for ts in range(25, 90)]
        # ts 25 takes the slow path mid-slice and arms the restored guard.
        assert run_operator(clone, tail[:1]) == run_operator(uninterrupted, tail[:1])
        assert [(s.open_until, s.open_until_count) for s in _slicers(clone)] == [
            (s.open_until, s.open_until_count) for s in _slicers(uninterrupted)
        ] == [(30, float("inf")), (float("inf"), 28)]
        expected = run_operator(uninterrupted, tail[1:] + [Watermark(1_000)])
        assert run_operator(clone, tail[1:] + [Watermark(1_000)]) == expected
        assert len(expected) == 7 + 16  # tumbling ends 30..90, count ends 28..88
        clone.check_invariants()

    def test_mid_slice_snapshot_keeps_the_guard_armed(self, monkeypatch):
        original = _guarded_operator()
        head = [_legacy_record(ts) for ts in range(25)]
        collected = final_values(original, head)
        bounds = [(s.open_until, s.open_until_count) for s in _slicers(original)]
        assert bounds == [(30, float("inf")), (float("inf"), 28)]

        clone = restore(snapshot(original))
        assert [(s.open_until, s.open_until_count) for s in _slicers(clone)] == bounds
        clone.check_invariants()

        # Still mid-slice on both chains: the restored guard answers for
        # ts 25 and 26 without the slicer, and the cuts at count 28 and
        # ts 30 go through it.
        entered = []
        slicer_type = type(_slicers(clone)[0])
        ensure = slicer_type.ensure_open_slice
        monkeypatch.setattr(
            slicer_type,
            "ensure_open_slice",
            lambda self, ts, count: entered.append(ts) or ensure(self, ts, count),
        )
        tail = [_legacy_record(ts) for ts in range(25, 60)]
        collected.update(final_values(clone, tail[:2]))
        assert entered == []
        collected.update(final_values(clone, tail[2:] + [Watermark(1_000)]))
        assert entered[:3] == [28, 30, 32]  # each chain enters for its own cuts only
        queries = [(TumblingWindow(10), Sum()), (CountTumblingWindow(4), Sum())]
        assert collected == reference_results(queries, head + tail, horizon=1_000)


#: ``snapshot()`` of the operator built by ``_session_median_operator``
#: after records ts 0-3, 10-13, 20 and 21, written by commit 8a6ce6b, the
#: last one whose Figure 4 rule kept records for every holistic query
#: (zlib + base85): its three slices carry their records.
_PRE_RECORD_RULE_FRAME = (
    "c-nPVOK&4Z5O(6&p7kSff)la}LP&7PUV;!32QCEVki%?@un#LCty&#V+dc9;yxl!{tP~!HjR-"
    "X2K=X$X2PF6fT;Rx&BR8mi%y>M>`r_%T>guYmo}=-"
    "T<J#I+ji3JL)XYx~7+J9NaFQ}|m@WvzB4tR)y%UnaAsR>FBur+XI*$5LJ^or<s{^@-"
    "5^^cf^Ng@76b8y)lP!G+30KdQd{k09p_t)`03H|Nge%$jOy9D)hFV$kB20qxLdjiw%^vw7C!B|Aq"
    "GWGuzn)sT!ixF~FO=VqeH39XP?)4FAPfnv{N3zKcJOS*$P5dk<PEF5MB|4vjf_=FHcv?q;$*3N?Y"
    "TPn_%8?3MuKAkLa`MB-QLpm8huj^RxErkm%CACSZ<~X*e3{L1ON%tQ1(#3(#3)Vh7KBJ3kd*;Fko"
    "(R!3d7Q8)V#3x3WR-%zX556r~sLUII_5)4%JoP2x}>5--G+mf-"
    "+6LAjq0kZ)wq(j2frXwC^sNMvjgVNAHd@dBk&AhZxfEKE3{AYUuRF(#O24AjZasr~dp9RMabv<CH"
    "3jTEiPCOX#Fmq2#iMKssq^aI*_rf3Jt2h%K>m@q)b(1$=k(*(Q@$R*sP`vv+p01%fu1sBY;i3j)m"
    "8kXDW9*?)GX-"
    "7Tz`qPxnqZ9|n6<%(uGmXA`E4v)>ogk4dBBQUH5E5|27f}f5bt|_i=4g^;i9pUjAa*s;Wv#yCgc6"
    "}^1z&)X+A@eC5aT!#kcH=(w8Kc8p5q8X=)wM(uA*z5Sf1P(S=QKcblJ#ul8U#rJtQ!wbI8Z84X6Q"
    "`tH-io>|d?K0wCm=J5TV7t50(3*boaWKC)41a_9l3st@FLNtq!-t7zyRK}yvOFJmTjQr8It-"
    "1nq64H=ZDE=$OCQ>yyAE;qm;6a78e8bxH3CA_3)gJmW+4o+(B=dayBQT|gp9F;jo-"
    "ts_XL!<&n%HOb6*s|4U9qE@G5myVH)XkBt&gJ{-*5C%9pAl6UA?tH;rG{E7ec@#3wZBHcC`_YY-e"
    "Io;J2&<oc3rc*6*iGwYqCu<a71=&!dZZa@_{{Sl!wxTKUZS!8|^sP9{3(5{tlh`Z94ONlmg)MoSA"
    "5R%fOu+^~;Ar`LJKYmkNh0JqHzKU)pzlDYHA8-"
    "G3#!tJ#BBvU{4nzX}xn*59Dt4XGT`@9#RlL&*?)AAs+>_xQe&TU8I&@Aq(U*N8HE7udDh9UIqIZ6"
    "x%ap&nAEx4VkGm0r=L!P0FE)4;Zq3b_^I#LNV_f2Sr3R@ao~sXG=8x#=FGpTk@*T`n&TXmffD&27"
    "f%HrL6YFDC6YN?}FN9UqZk22I2}%fd+LfgxKn0zFOWx9Ep*t15Z}y-IGO2??VTmHq~@n-"
    "!uH)!%v$LW9yX+=^C+MsyQ}c{^Sz?XA*`U>AWiaT<iv5W1%k8#w<Rd1ChkBi+oWG6brvm2eO;E!("
    "!mD*kqI=dAA7oX7T9G}d1L_$|9XRZ*xAwGH%F&7!{>d;0cT$*Cc@UJYUoRilVjY~Mx`JfW~fEMM{"
    ";!GLwt742P1MbHFc*8$y=OdwbXrzwLa2Xwb#ZA=i{2qSg!pKE}!zofeMRq*Ja8qH0c&&y<eSi-"
    "T&>)Excn#l%9uMnd@Ye&ng&?c(xJsw(asq|mjwJL+kMoQm;+1sPrFuB~00;3QP`Fi5l>`d{{f{}A"
    "{5$pbIo)&<Kp4>kuF53=C3jAxGqE5gD14sbF9$=XSuwt(ypSCVL<KT{2#gJZ7p`u<wg@L!1cEJVx"
    "7cjM1jM?10j~Rn?0w!)dJ3IUz!D5M#"
)


def _session_median_operator():
    operator = GeneralSlicingOperator(stream_in_order=False, allowed_lateness=1_000)
    operator.add_query(SessionWindow(5), Median())
    return operator


class TestFramesAcrossTheRecordRule:
    HEAD = [_legacy_record(ts) for ts in (0, 1, 2, 3, 10, 11, 12, 13, 20, 21)]

    def _restored(self):
        blob = zlib.decompress(base64.b85decode(_PRE_RECORD_RULE_FRAME))
        assert blob.startswith(CHECKPOINT_MAGIC)
        clone = restore(blob)
        (store,) = clone.state_objects()
        return clone, store

    def test_frame_with_records_restores_under_the_rule_derived_from_its_queries(self):
        clone, store = self._restored()
        # Genuinely an old pickle: every slice keeps its records ...
        assert [len(slice_.records) for slice_ in store.slices] == [4, 4, 2]
        # ... and the flags it was written with are not what it runs on.
        chain = clone._chain_list[0]
        assert clone.stores_records is False
        assert chain.manager.store_records is chain.slicer.store_records is False
        clone.check_invariants()

        uninterrupted = _session_median_operator()
        run_operator(uninterrupted, self.HEAD)
        tail = [_legacy_record(ts) for ts in range(30, 90, 2)] + [Watermark(2_000)]
        assert run_operator(clone, tail) == run_operator(uninterrupted, tail)
        clone.check_invariants()
        # The records left with their slices: the same frame from here on.
        assert snapshot(clone) == snapshot(uninterrupted)

    def test_a_session_merge_across_old_and_new_slices_keeps_no_half_filled_list(self):
        clone, store = self._restored()
        collected = final_values(clone, [_legacy_record(30), _legacy_record(31)])
        assert [slice_.records is None for slice_ in store.slices] == [False, False, False, True]
        # ts 25 extends the session of 20 and 21 in the frame's last
        # slice; ts 27 extends the one of 30 and 31 backwards and bridges
        # the two: a slice with records absorbs one without.
        late = [_legacy_record(25), _legacy_record(27)]
        collected.update(final_values(clone, late))
        merged = store.slices[-1]
        assert (merged.start, merged.record_count, merged.records) == (18, 6, None)
        clone.check_invariants()
        collected.update(final_values(clone, [Watermark(2_000)]))
        arrived = self.HEAD + [_legacy_record(30), _legacy_record(31)] + late
        assert collected == reference_results([(SessionWindow(5), Median())], arrived, horizon=2_000)
        assert (0, 20, 36) in collected


class LambdaSum(Sum):
    """Picklable class, unpicklable *instance* (closure in state)."""

    def __init__(self):
        super().__init__()
        self.udf = lambda value: value


class TestSnapshotErrors:
    def test_unpicklable_udf_named_in_error(self):
        operator = GeneralSlicingOperator(stream_in_order=True)
        operator.add_query(TumblingWindow(10), Sum())
        bad_query = operator.add_query(TumblingWindow(20), LambdaSum())
        run_operator(operator, [Record(t, 1.0) for t in range(5)])
        with pytest.raises(SnapshotError) as excinfo:
            snapshot(operator)
        message = str(excinfo.value)
        assert f"query {bad_query.query_id}" in message
        assert "LambdaSum" in message


@pytest.mark.fuzz
class TestRestoreCorruptionFuzz:
    """Seeded fuzz over mutated snapshots: restore() must classify every
    corruption as :class:`CheckpointFormatError` (or, when the mutation
    happens to leave a loadable pickle, still return a WindowOperator)
    -- never leak a raw ``pickle``/``EOFError``/``UnicodeDecodeError``.

    Override the schedule with ``REPRO_FUZZ_SEED``.
    """

    TRIALS = 250

    def test_mutated_blobs_never_leak_raw_errors(self):
        import os
        import random

        from repro.core.operator_base import WindowOperator

        rng = random.Random(int(os.environ.get("REPRO_FUZZ_SEED", "90210")))
        operator = build_operator()
        run_operator(operator, [Record(t, float(t % 5)) for t in range(60)])
        blob = snapshot(operator)

        rejected = 0
        for _ in range(self.TRIALS):
            mutated = bytearray(blob)
            mode = rng.randrange(3)
            if mode == 0:  # truncation (torn write)
                mutated = mutated[: rng.randrange(len(mutated))]
            elif mode == 1:  # 1-8 bit flips (media corruption)
                for _ in range(rng.randint(1, 8)):
                    position = rng.randrange(len(mutated) * 8)
                    mutated[position // 8] ^= 1 << (position % 8)
            else:  # splice random garbage over a random span
                at = rng.randrange(len(mutated))
                span = rng.randint(1, 16)
                mutated[at : at + span] = bytes(
                    rng.randrange(256) for _ in range(span)
                )
            try:
                result = restore(bytes(mutated))
            except CheckpointFormatError:
                rejected += 1
            else:
                # A mutation can leave a loadable payload (e.g. a bit
                # flip inside a float); the contract is only that what
                # comes back is an operator.
                assert isinstance(result, WindowOperator)
        # The suite is vacuous if (nearly) every mutation survives.
        assert rejected > self.TRIALS // 2
