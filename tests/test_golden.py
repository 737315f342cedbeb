"""Golden draws: fixed seeds over a (route, b, z) grid reproduce these
values bit for bit.

Each case seeds a fresh ``RngStream`` from its (route, b, z) label and
draws 64 values with ``sample_pg_batch``, then three values one at a
time with ``sample_pg``; the uniform drawn after them pins the stream
state the call leaves behind.  The batch samplers' ``counters=`` dicts
are pinned for the same cells.  Expected floats are stored as
``float.hex`` so the comparison is exact.

A second, one-draw table pins ``sample_pg`` on the exact routes, whose
single draw runs one flat float loop over its J* pieces (one piece at
b = 1 and at b <= 4 on the alternate sampler, several at b = 2 and
above the alternate sampler's piece cap, which rises with the tilt): 200
draws cycled over a tilt ladder, stored as the sha256 of
their ``float.hex`` strings, plus the uniform drawn after them and the
counters of one size-1 J* call.  A change that alters any of
these values changes the draws a seed produces: regenerate the file
only when that is the intent.
"""

import hashlib
import zlib

import numpy as np
import pytest

from pgrv import PgParams, RngStream, sample_pg, sample_pg_batch
from pgrv import alternate, devroye, saddle
from pgrv.pg import SADDLE_MIN_SIZE, choose_method

SIZE = 64
SCALAR_DRAWS = 3
TILTS = (0.0, 1.0, 8.0)

ROUTE_SHAPES = {
    "devroye": (1.0, 2.0),
    "alternate": (1.0, 2.5, 4.0, 7.3, 12.0, 13.0, 40.0, 170.0),
    "saddlepoint": (13.0, 40.0, 170.0),
    "gamma-sum": (0.3, 0.9),
    "normal-approx": (200.0,),
}

# The route the default hybrid rule picks for each shape above, for a
# batch of SIZE draws and for one draw alike: both sizes are below
# SADDLE_MIN_SIZE, so the saddlepoint shapes take the alternate route.
AUTO_ROUTE = {
    0.3: "gamma-sum",
    0.9: "gamma-sum",
    1.0: "devroye",
    2.0: "devroye",
    2.5: "alternate",
    4.0: "alternate",
    7.3: "alternate",
    12.0: "alternate",
    13.0: "alternate",
    40.0: "alternate",
    170.0: "alternate",
    200.0: "normal-approx",
}

# (route, b, z): (64 batch draws, the uniform drawn after them)
BATCH = {
    ("devroye", 1.0, 0.0): (
        "0x1.c23864f7e08d9p-1 0x1.994cfbe0bed30p-3 0x1.c27d296a11983p-3 "
        "0x1.1025cb33d03b3p-2 0x1.dc68be4eca8dep-3 0x1.48d5e44ca01d9p-3 "
        "0x1.67f679d18da0ep-2 0x1.b3ee8a6519b20p-4 0x1.082b9d5d65947p-3 "
        "0x1.48853f08fc6d3p-3 0x1.23cf92d962f9ep-2 0x1.33c658fd9eedap-2 "
        "0x1.05428402a562bp-1 0x1.622b1b06f22efp-3 0x1.be4cfb346131fp-3 "
        "0x1.f83e132d1ec37p-4 0x1.a084142216fdap-3 0x1.33cdd25373334p-2 "
        "0x1.d19b8371818e8p-4 0x1.21459264d6f1ep-3 0x1.1cde8e31d3ae3p+0 "
        "0x1.01fb7db89fbb4p-2 0x1.a046e3ec070bep-2 0x1.4c3ddc3c9b2e7p-1 "
        "0x1.496bc4525aca4p-2 0x1.99e760f4710d9p-6 0x1.7caf8d5c00778p-5 "
        "0x1.01e9c64de3f23p-1 0x1.68a87e4d715c4p-1 0x1.4f294bcbff47ep-2 "
        "0x1.5e1983b72fe69p-4 0x1.7945a57f231bap-3 0x1.55435227b10d8p-2 "
        "0x1.c249563a78989p-4 0x1.35f0316261969p-4 0x1.b12d441245482p-3 "
        "0x1.53e3f763056a7p-3 0x1.6b0a04e06f097p-3 0x1.1514a324e2910p-2 "
        "0x1.c602e25d3dd12p-2 0x1.7f0076a9ed314p-3 0x1.3c84d843db093p-3 "
        "0x1.a399cdd94760bp-5 0x1.6a348029675e8p-2 0x1.87551c24ca25dp-4 "
        "0x1.581453792ef98p-3 0x1.6144e5f2f4189p-3 0x1.9513b28c68cd7p-3 "
        "0x1.b148ab835029cp-4 0x1.771d842c7dd49p-4 0x1.a176d9cd22908p-2 "
        "0x1.e79cae206ef40p-5 0x1.e86c6d1306159p-5 0x1.81a0c0410e8e1p-3 "
        "0x1.c17a58eb376edp-3 0x1.548953ef136aap-2 0x1.b1c832e283d89p-5 "
        "0x1.3842cc6eac1c2p-4 0x1.137f03db313b9p-4 0x1.be96b2f772d53p-3 "
        "0x1.1119eb1ad8c5bp-2 0x1.e11fba4088edep-2 0x1.5edd59f1e05ddp-4 "
        "0x1.e8f3e335286e0p-3",
        "0x1.81cde49566e4ep-1",
    ),
    ("devroye", 1.0, 1.0): (
        "0x1.d99eafe7dc925p-3 0x1.94a30a872d3afp-2 0x1.55461682c320cp-3 "
        "0x1.74cd8a2ac4429p-3 0x1.fbd44964a08f2p-2 0x1.0c6e4b23f95b0p-1 "
        "0x1.df2873d6c6c1fp-5 0x1.bec10b968ea4fp-3 0x1.267ef1c1571d8p-2 "
        "0x1.7ec877bd4bb5dp-3 0x1.2cea17f9386afp-1 0x1.0f5c14d3fd299p-5 "
        "0x1.7efddc43e04adp-2 0x1.268f861b391d7p-3 0x1.40292b95101afp-4 "
        "0x1.4431ffb01d3f2p-3 0x1.1218dd47c8a91p-3 0x1.6978c69d3b20cp-4 "
        "0x1.0a91149a183a0p-2 0x1.afed681489a17p-3 0x1.193d8ad2aa7bap-2 "
        "0x1.c00edba9dce1ap-4 0x1.5f28101ca5268p-2 0x1.2f8a761fb2747p-4 "
        "0x1.dd0e10026f501p-3 0x1.4e3f0d54cb7dep-3 0x1.d2b43956cbac1p-4 "
        "0x1.575b9168c285cp-4 0x1.1bf97fe42da23p-3 0x1.84f2129843dc0p-4 "
        "0x1.23ed62c22aa18p-3 0x1.4bee38975cd95p-2 0x1.3660363e909bap-3 "
        "0x1.123d319050682p-4 0x1.0249934f0944ap-2 0x1.1a08e23c4e949p-2 "
        "0x1.a7686c0507b74p-3 0x1.83ae748cd2cfap-6 0x1.e504627f8e404p-4 "
        "0x1.aab7a4b99501fp-4 0x1.fbb14cf833e83p-4 0x1.0ad0c0f0f7b8cp-4 "
        "0x1.0d9fb2ffc813bp-3 0x1.38f74a8cb009dp-2 0x1.eb2a09ffe3368p-2 "
        "0x1.108b636522ffep-2 0x1.2d5797160dcffp-1 0x1.7c1866ee84e29p-2 "
        "0x1.0b481f4f34804p-3 0x1.95ea05981bcb8p-3 0x1.06c48dd343a27p-2 "
        "0x1.8da1a105c2943p-3 0x1.03083253e1365p-1 0x1.e87f14fbd70a9p-4 "
        "0x1.efc46e5b51daep-3 0x1.96ab17c95dcf6p-3 0x1.c5013fe2a88dcp-2 "
        "0x1.1a87de211018dp-2 0x1.485b269fa8526p-3 0x1.739b07df9001cp-4 "
        "0x1.ddb16f06b9487p-1 0x1.9579fc5a3d8bdp-1 0x1.6f9ea90227d2cp-2 "
        "0x1.3eff228e47e60p-2",
        "0x1.eb3d65c826ffep-1",
    ),
    ("devroye", 1.0, 8.0): (
        "0x1.e2d0732e97934p-4 0x1.08bfd3eebc9d9p-4 0x1.c91dfa7bfa0cap-5 "
        "0x1.af45a8844b872p-5 0x1.baf0a5fb5e703p-4 0x1.0801bf34b15d7p-3 "
        "0x1.3193a461c5424p-5 0x1.1116ece547111p-5 0x1.47060d19aacf0p-4 "
        "0x1.2437f0249a760p-3 0x1.b1491c14980a1p-5 0x1.51c8e2b82be24p-6 "
        "0x1.fb9da67a14797p-5 0x1.2d79f76dcaaa8p-3 0x1.2e9fadcb84e8fp-3 "
        "0x1.bbe7d30742e84p-5 0x1.ed178f2ef415bp-5 0x1.710d842c008dfp-5 "
        "0x1.c036b1f303576p-4 0x1.c9d0f2dfe22fep-5 0x1.d05878974751ep-5 "
        "0x1.fd377df15b3acp-4 0x1.4ed5036b7f406p-5 0x1.41c1027d12a6ap-5 "
        "0x1.9665f2387efcap-4 0x1.9634dc94e6fb8p-4 0x1.4c0006be64150p-5 "
        "0x1.20ee9316c13fap-4 0x1.4e06c937e75dap-5 0x1.1817bc06dbf50p-5 "
        "0x1.d1bd29d84c30bp-5 0x1.b53bdcf14a300p-5 0x1.4abd2d1efdd7bp-5 "
        "0x1.eae418d363a4ap-5 0x1.d90f72dd50c7bp-5 0x1.1847165ebcfeep-5 "
        "0x1.052637c0afdd4p-4 0x1.d15c9f48faf91p-5 0x1.d957255730bb8p-5 "
        "0x1.d38955aefe514p-5 0x1.e87efa42200bep-4 0x1.737d70bf13d36p-5 "
        "0x1.fd920f0dc47dcp-5 0x1.3e5e47768e7b8p-6 0x1.4642def857963p-4 "
        "0x1.bd4511e090b42p-3 0x1.5cdd9eececc0ep-5 0x1.d1312c08142dep-5 "
        "0x1.e6b9613d9bd98p-5 0x1.3e32c59584ac6p-5 0x1.5f0a466392cf2p-5 "
        "0x1.ca06044c7be7ep-4 0x1.e73d8c9e4c149p-5 0x1.253abb7af2fe2p-4 "
        "0x1.63fe9890f55ecp-6 0x1.71c97d0292d4ap-5 0x1.dbafcb4d775a4p-6 "
        "0x1.336b0b8514072p-4 0x1.2659b1749ef51p-4 0x1.fe541dba969e9p-5 "
        "0x1.7f8348412fbd1p-4 0x1.64ce0432b52fcp-4 0x1.4764148175ceap-5 "
        "0x1.7337c810b68e8p-6",
        "0x1.a0b1661f34845p-1",
    ),
    ("devroye", 2.0, 0.0): (
        "0x1.0b8d759f3d4c6p+0 0x1.f598955a6fae6p-2 0x1.2095b5b859b79p-1 "
        "0x1.b27873cb195ecp-2 0x1.fa63343ee9663p-4 0x1.6e8bef9dbe7fbp-2 "
        "0x1.401cae8aa338ep+0 0x1.5fc92c86150f6p-1 0x1.9ec2a1d28e12dp+0 "
        "0x1.89a11bd409c42p-1 0x1.bcffe59c4b2ddp-4 0x1.0f70d66a965e5p-2 "
        "0x1.89b7433312678p+0 0x1.f6abf211b3101p-3 0x1.8049e6a5511afp-2 "
        "0x1.ce0e9dbcf4f74p-2 0x1.b89288d40421ep-3 0x1.6b84057536c5bp-2 "
        "0x1.a6e5f118da930p-2 0x1.12e525058d5bcp-1 0x1.ae95e10e4533fp-2 "
        "0x1.164cbdfbe5374p-1 0x1.184234f4f5d46p-1 0x1.945d518e38cb0p-3 "
        "0x1.2ff53eaad939cp-2 0x1.8641685ade2e7p-2 0x1.01e38455e6e48p-2 "
        "0x1.b7dfed8e878bfp-1 0x1.df8b0b6dbdb26p-4 0x1.ee671ce2f6447p-2 "
        "0x1.d864cbc8ecc0dp-2 0x1.d1f4af0f88fd2p-2 0x1.eb2df401a27d8p-2 "
        "0x1.ac51b9dd6b4d4p-2 0x1.11df4225ccc16p-2 0x1.4e42a36d4b926p-1 "
        "0x1.b8915406f4da8p-2 0x1.69cda777a6a8cp+0 0x1.a357209aa6298p-1 "
        "0x1.75dd9f77e9faap-1 0x1.fa903c56a8f02p-2 0x1.fe3a2b407deeap-3 "
        "0x1.2925a5627895ep-2 0x1.4f18ae7d5a1d4p+0 0x1.817c7f51f9c66p-1 "
        "0x1.ad9c8f1625f9fp-2 0x1.199ff96a45e7fp-2 0x1.a556673d3c2b8p-2 "
        "0x1.6a9b363f2de27p-3 0x1.6c2071742afa0p-1 0x1.64d50ef43ac6ep+0 "
        "0x1.e4060b18835b7p-2 0x1.c61db4641605fp-2 0x1.3e78285c68245p-1 "
        "0x1.4477a9fcb4754p-2 0x1.953757962c128p-2 0x1.02dc2b7ba222cp+1 "
        "0x1.711d12a8d872ap-2 0x1.fc5448b8efd22p-2 0x1.000b4a5b4f9aep-3 "
        "0x1.553e49766014ep-1 0x1.0e65c171f6d07p-2 0x1.cc0615bcb91cep-1 "
        "0x1.5d46614979d5ep-3",
        "0x1.014a865cb81a5p-1",
    ),
    ("devroye", 2.0, 1.0): (
        "0x1.3f455e54980d3p-3 0x1.0df857a27e57cp-1 0x1.1242473a22b52p+0 "
        "0x1.c47e913d6eb0ep-1 0x1.409986a340f1dp-1 0x1.2bbc61c528e24p-1 "
        "0x1.311796a9578c4p-1 0x1.b1f832fa10c00p-2 0x1.dc2afaec70576p-3 "
        "0x1.f1ca7ec526590p-3 0x1.7e7d653a76767p-2 0x1.4bc9e78ad85f6p-2 "
        "0x1.66c9a1eade3e3p-2 0x1.5c3164976c094p-2 0x1.e1b3bee7eb91cp-1 "
        "0x1.316eef18481bcp-1 0x1.c7671c6ceb8cbp-1 0x1.33ea11ab4a821p-1 "
        "0x1.442e9c69dd1dcp-1 0x1.d81bfa2274668p-1 0x1.6513059104e09p-3 "
        "0x1.8d9dc1c2c2e0ep-2 0x1.274dfe382a861p-1 0x1.1e34d7ee1c9a1p-1 "
        "0x1.d851ebaee0196p-2 0x1.547cd1b81e31ep-2 0x1.4125496c9ee62p-2 "
        "0x1.0a4642e0596ccp+0 0x1.cdf347e18ece6p-2 0x1.268b3cd5923d8p-1 "
        "0x1.41cdc60fccdecp-2 0x1.0aaf9dad66c8ep-3 0x1.31adb4e11ee24p-2 "
        "0x1.246f78cad02c1p-3 0x1.66dda46634d8cp-1 0x1.1c3225eece230p-1 "
        "0x1.64bf9f3d01067p-2 0x1.988ad9b57945ap-1 0x1.9caacf2408431p-2 "
        "0x1.062462beaa9c4p-2 0x1.beb1c357c648cp-3 0x1.85a582b3b5c07p-1 "
        "0x1.be991f7046440p-1 0x1.5f4633623b000p-2 0x1.9a542397f6f4ap-4 "
        "0x1.580ccaea83142p+0 0x1.08f87e958c21ap-2 0x1.df1532ed30a8fp-3 "
        "0x1.a7936bc792620p-3 0x1.eef259533ce4dp-3 0x1.a6d20cac5644bp-3 "
        "0x1.e91dad50af174p-3 0x1.4b7f0a11ebf0dp-2 0x1.be66477e06f46p-3 "
        "0x1.c69362fde670ap-2 0x1.c7005b8979a7ap-1 0x1.a478333406e22p-3 "
        "0x1.3fdcfed9a96e3p-1 0x1.e685b22b45be8p-2 0x1.2e3e9d1c76346p+0 "
        "0x1.fcb845a759139p-4 0x1.ce0d2337c2a72p-2 0x1.32f2ed07d8c0ap-2 "
        "0x1.8a3a9832dfbabp-2",
        "0x1.f83fc2a0882edp-1",
    ),
    ("devroye", 2.0, 8.0): (
        "0x1.bee6e31152bc6p-4 0x1.b1ca78413ab2cp-4 0x1.193549a4d1d32p-4 "
        "0x1.95331bcac54a0p-4 0x1.a06480cc541ecp-3 0x1.f42c0d0e1e01bp-5 "
        "0x1.66adbb73d9abcp-3 0x1.d41c59d632edep-4 0x1.5771ee244e225p-4 "
        "0x1.3cb60df2dca60p-3 0x1.86906801f0303p-4 0x1.379fc7c4c5d43p-3 "
        "0x1.85f429539515cp-4 0x1.0f77d4bc17b3fp-3 0x1.5fef84bd66aefp-4 "
        "0x1.5e61755605e0dp-3 0x1.e0f186103d48fp-4 0x1.a6d8c150b045cp-4 "
        "0x1.f413f7d19824cp-4 0x1.c2572929c0351p-3 0x1.af0568d49d25bp-3 "
        "0x1.d16b7ae5284e5p-4 0x1.b5c2bc6df2c41p-4 0x1.4b8cb376205e4p-3 "
        "0x1.1db1e6e1bce54p-4 0x1.9e6e1371fac86p-4 0x1.b4634cb6077bcp-3 "
        "0x1.a4a0eff2e5b7bp-4 0x1.66a18704230c8p-3 0x1.27e132d980e0dp-4 "
        "0x1.19f9998355780p-4 0x1.4ae4821a27568p-4 0x1.c6e5bb46ff092p-4 "
        "0x1.e6bc39cfcccaap-4 0x1.e0907ff779a68p-3 0x1.b5031e91e40e4p-3 "
        "0x1.08b773a2583b1p-4 0x1.875285951597fp-4 0x1.505a6f4eab060p-4 "
        "0x1.273536267ebddp-4 0x1.f7cead21b3f30p-4 0x1.e786b3319c340p-4 "
        "0x1.84c33e071f2b0p-4 0x1.3cf5f0ce655b8p-3 0x1.4ce62361d55fap-3 "
        "0x1.bd91f593d9a26p-3 0x1.25f2e2ad5756dp-3 0x1.5c81eb5c49d07p-4 "
        "0x1.2f6a65cd9fe26p-3 0x1.dc6433ff17b72p-4 0x1.f104d78e126fap-4 "
        "0x1.bf18d8254fbd5p-4 0x1.fff8a816abe2cp-4 0x1.f4be551945736p-4 "
        "0x1.0f5fc41245b9cp-3 0x1.aef7ae380d5e2p-3 0x1.5199cd3f4a7e6p-3 "
        "0x1.233295b5438e1p-3 0x1.d03df4c73072ap-4 0x1.3decb9b64121cp-3 "
        "0x1.090d20d2cb4b9p-3 0x1.d697a4d2c9bd7p-4 0x1.8ac3344560643p-4 "
        "0x1.8213878ed0e11p-4",
        "0x1.b037e6ad0fca1p-1",
    ),
    ("alternate", 1.0, 0.0): (
        "0x1.f8e85db800d74p-1 0x1.762530d9b4bb5p-1 0x1.82fbef44407bbp-4 "
        "0x1.5da33da1d136dp-3 0x1.3b1ed8e01501fp-5 0x1.c5de84d864e1bp-5 "
        "0x1.7ed6a825040c2p-2 0x1.768c01490a10bp-3 0x1.f03ab8f8197dfp-5 "
        "0x1.56209865d4c8ap-5 0x1.a9b9ba5089d99p-3 0x1.998defe2851cap-2 "
        "0x1.3b64f278c0568p-2 0x1.7b3a207457ddcp-2 0x1.05dd621be57bep-3 "
        "0x1.ee895625a38bcp-5 0x1.a8c7aa3960c9ap-3 0x1.b076cbd4fc844p-2 "
        "0x1.e2cb9beb385ccp-4 0x1.5d9d97bab58bcp-1 0x1.ae5df5da7b15bp-4 "
        "0x1.378de38ca2e70p-2 0x1.a2b1706afe092p-3 0x1.7eb259a52a518p-5 "
        "0x1.0a11ff4dc46b9p-3 0x1.5d0689ed3b011p-3 0x1.d79dd392526c3p-4 "
        "0x1.77ea52de610a1p-4 0x1.c3e65024a2918p-3 0x1.4de2b6f839a77p-3 "
        "0x1.ff64378205b78p-2 0x1.8e8455cdf7e67p-1 0x1.93cbe5cb4cc24p-3 "
        "0x1.ce41f01a14d04p-3 0x1.001039dbb71f6p-2 0x1.278d79ba9879ep-2 "
        "0x1.cfd6548b5587fp-6 0x1.61de820d5f366p-5 0x1.928ddcbf8ff11p-4 "
        "0x1.ceba8f05656a1p-2 0x1.c29817177dbdcp-2 0x1.830bc93396936p-4 "
        "0x1.6a10645eaedfap-3 0x1.d16da8f879b45p-2 0x1.ea783da71b91dp-4 "
        "0x1.1d0a78085fac8p-4 0x1.69299c6b38c60p-3 0x1.15fd91e527291p-3 "
        "0x1.3ff5a1d4f19b1p-1 0x1.ae5980d849a85p-2 0x1.bde71000929cap-3 "
        "0x1.8fa1af7dd745dp-6 0x1.188daabcd1630p-2 0x1.f4b4a275b7b50p-3 "
        "0x1.b6ac560f8e667p-5 0x1.88bcf50e82e31p-4 0x1.07c1003f28168p-1 "
        "0x1.8646d9d61c05ap-3 0x1.a386f6347341fp-2 0x1.5b6b7eb0980d5p-3 "
        "0x1.7a882bc9e5fc1p-3 0x1.147ec164b0ba5p-2 0x1.bc05077b7634fp-5 "
        "0x1.d0c6abb1f2f75p-2",
        "0x1.c9437ac780fbbp-1",
    ),
    ("alternate", 1.0, 1.0): (
        "0x1.7d423f8fb1167p-3 0x1.2c6b0f98bd24fp-3 0x1.46f56cc0f943ap-2 "
        "0x1.0dbb6c1fb5c76p-4 0x1.222833e2159ffp-4 0x1.2452af3e26af1p-2 "
        "0x1.24a796e8b98b6p-4 0x1.cd9a9710c3e51p-5 0x1.ac8df1123b884p-2 "
        "0x1.ef74fff4a1264p-3 0x1.83c5c78817d7ap-3 0x1.895d0e4512f94p-2 "
        "0x1.cf0a34aeac141p-2 0x1.cc5e8c37e6d50p-2 0x1.272d8ffbeca9ap-2 "
        "0x1.ebd6a4c7d1f09p-2 0x1.8623b3d25e6f4p-3 0x1.ca6792148017cp-5 "
        "0x1.8fe71181b6f3cp-1 0x1.c8e7105289de2p-3 0x1.33a72507e34bdp-5 "
        "0x1.c966f8cdabab2p-3 0x1.a4a2dba405abcp-2 0x1.7cb87f716d447p-2 "
        "0x1.80c8e46a0e23bp-2 0x1.aa1f03a120fb4p-1 0x1.bd33504230a8dp-3 "
        "0x1.1b098807fe03ep-2 0x1.d55f24190891ap-3 0x1.2941404294819p-3 "
        "0x1.a276d435d247bp-3 0x1.6b8c678749bf1p-3 0x1.38b2416577ed1p-3 "
        "0x1.17dd5c1afc900p-3 0x1.06dac4086b507p-5 0x1.5ff7ec7c3b19fp-3 "
        "0x1.b7f22b8553bb4p-3 0x1.c319eeecf3d12p-4 0x1.33125331efaffp-3 "
        "0x1.2a2684ab603aep-3 0x1.bfb7632029758p-3 0x1.25b8674bac016p-2 "
        "0x1.2fa8f37aa25abp-3 0x1.b81b91891935dp-2 0x1.25a6ac208f152p-1 "
        "0x1.45f69676d07c8p-5 0x1.73630312e6249p-3 0x1.97f96777b0aa9p-3 "
        "0x1.70ca79d3a3094p-3 0x1.a42d702af597ap-2 0x1.61dda79344f0ep-3 "
        "0x1.360e13481a120p+0 0x1.aebd525fb23cep-3 0x1.7a7d970316c3ap-5 "
        "0x1.e2a3a9d2fd001p-2 0x1.3dc1f10eb23afp-4 0x1.122172b3eb20fp-3 "
        "0x1.87ebda3024c3cp-5 0x1.8d310d839b896p-2 0x1.470385f7eea58p-3 "
        "0x1.134fd00461982p-3 0x1.97a03e8183a15p-4 0x1.eacbcc258725bp-5 "
        "0x1.17eeadba5e1d3p-2",
        "0x1.e2856767632f1p-1",
    ),
    ("alternate", 1.0, 8.0): (
        "0x1.9979cd2960014p-5 0x1.bb32de1056cc3p-4 0x1.ccf8c5a763254p-6 "
        "0x1.8b320cdc83c7ep-4 0x1.7a2a402c982cep-5 0x1.a0ff1d5bcf94cp-4 "
        "0x1.84393904b3af8p-4 0x1.8a26c7c041125p-5 0x1.64fb3594c79e0p-5 "
        "0x1.ffe3a3f479f47p-5 0x1.5d9addd77b4e4p-4 0x1.508955c62f65fp-4 "
        "0x1.80b54138516f6p-5 0x1.dc27d8310dcb8p-5 0x1.cc37ff61263d9p-5 "
        "0x1.986d638b64402p-5 0x1.5013ef000cc08p-5 0x1.4a9f6c4810ffdp-5 "
        "0x1.d31220bc426c3p-5 0x1.97439d3490b18p-6 0x1.34436ba330d44p-5 "
        "0x1.741503b15382bp-4 0x1.138bd36c0cfc2p-4 0x1.66207b02febc2p-6 "
        "0x1.a5330d32b7a60p-5 0x1.3c22f19258967p-4 0x1.82a4b9e690528p-4 "
        "0x1.88669dea26664p-5 0x1.fffe1b9306948p-5 0x1.405e03db4fc50p-5 "
        "0x1.6effe6cb8c549p-4 0x1.0112f929c7458p-5 0x1.010f4049c88a2p-4 "
        "0x1.ed125939273e3p-5 0x1.802970bfbd3e7p-4 0x1.c5f7e59398d4ap-5 "
        "0x1.54fbcc92c3134p-5 0x1.95294b34fe6ffp-4 0x1.b4ff621a64662p-5 "
        "0x1.cdb25d6944608p-6 0x1.9316564ae6838p-5 0x1.578f2ff4bf409p-4 "
        "0x1.98f2c4f7695dfp-4 0x1.17a14d1fc6dd2p-3 0x1.20b0f7dc70801p-5 "
        "0x1.26446e1f0316cp-4 0x1.76ae70012f103p-5 0x1.ec2e56f73df62p-6 "
        "0x1.0cb4216fe1881p-3 0x1.e42ab6391c094p-6 0x1.53c21d4a749d5p-4 "
        "0x1.b956cdae93dcep-5 0x1.cee53f0939bf8p-4 0x1.7a59981125fb8p-4 "
        "0x1.8d7a22b4d3703p-4 0x1.5777e0c2d5d7dp-4 0x1.2ed55bca94c9fp-4 "
        "0x1.74df21016decep-5 0x1.045eb8dec956fp-3 0x1.74da17526bdf4p-5 "
        "0x1.8adf3029e53dap-5 0x1.706e6ce0c76aep-5 0x1.152c9050598d4p-5 "
        "0x1.2a2fe329ffc72p-3",
        "0x1.94a47252edba5p-1",
    ),
    ("alternate", 2.5, 0.0): (
        "0x1.9be4b6dfceb0ep-2 0x1.8df63f0bd9145p+0 0x1.4a4ccde843557p-1 "
        "0x1.05321da5847bbp-1 0x1.0793ec171628ep-1 0x1.2c011aaabadc7p-2 "
        "0x1.6316a89117625p-3 0x1.8dbd020ac368dp-2 0x1.33c2b178fa993p-1 "
        "0x1.d23f4ddf5a97fp+0 0x1.17c72303f39bep-2 0x1.dedc2ac6a9f3ap-1 "
        "0x1.b5d3c1250d9a0p-3 0x1.5bb5b6b9879d1p-2 0x1.d0f48f0f7ab4dp-2 "
        "0x1.dba1624aef932p-2 0x1.72ff42ab21e69p-2 0x1.86618250db17bp-2 "
        "0x1.8b016619cff0bp-2 0x1.0076c210665b5p-1 0x1.acdb4d963b1a0p-1 "
        "0x1.02b9077fa7d26p-1 0x1.558935870918fp+0 0x1.0b5da26910c5cp+0 "
        "0x1.199a2d4968ef6p-1 0x1.a8af4498e8ff4p-2 0x1.11333544d8c70p-1 "
        "0x1.a0f11024bd072p-3 0x1.c466adff27259p-2 0x1.cbd788dd402ccp-2 "
        "0x1.6eda66a0f866dp-1 0x1.a89c8531f40b7p-1 0x1.229961863c0f8p+0 "
        "0x1.c2e04171e5508p-1 0x1.0a384a9e8f19fp-1 0x1.d0fbee7dfa83cp-1 "
        "0x1.317236205acdbp-1 0x1.dd625df8159f2p-3 0x1.4cfd2a4365d2bp+0 "
        "0x1.04dffbd1d05e2p-1 0x1.61e4e0af11e8ap-1 0x1.645beef71b28fp-1 "
        "0x1.375c01ef8f29ap-1 0x1.0db5426cbb06fp-1 0x1.2ac68fbac07f7p+0 "
        "0x1.710b9ec8017b9p-1 0x1.46c2e7e454ee6p-1 0x1.0a446a9342c61p-1 "
        "0x1.e98dcfdc55cf8p-2 0x1.62dfd1f7c061ap-2 0x1.15eb29d932d8dp-1 "
        "0x1.6439d4c1c339bp-2 0x1.c402d4ad1b9ddp-2 0x1.0723a52d3c6f6p-1 "
        "0x1.08866e20d38abp-2 0x1.f4a4cbc73b9f1p-2 0x1.ff40284a21652p-1 "
        "0x1.ac3cdd4827e33p+0 0x1.5801c01c60127p-2 0x1.1c4860af8232bp-1 "
        "0x1.95642fa9b444ep-1 0x1.b93afeba78f2fp-1 0x1.3e7a52658ca96p-1 "
        "0x1.f9727464432f0p-3",
        "0x1.d2cf0a6ec93b0p-3",
    ),
    ("alternate", 2.5, 1.0): (
        "0x1.a7cd60066b1afp-2 0x1.13ea752be93cdp+0 0x1.e1e6fd6781fddp-2 "
        "0x1.7baf6d923536cp-2 0x1.3efc35d96a929p-1 0x1.9563ed7c26998p-2 "
        "0x1.7b0cefcc55ecfp-1 0x1.a69ac4e9455bcp-2 0x1.2151f1cd88f2ap-2 "
        "0x1.754f31c46ceabp-2 0x1.0e78f676e3c70p-3 0x1.0889c15fd27c0p+0 "
        "0x1.10e2d8adaca03p-1 0x1.1aa8502a59c4cp-2 0x1.8a0fe0b8df235p-2 "
        "0x1.a2567358c13cfp-1 0x1.684c3e70268bfp-1 0x1.341936ff8fceap-1 "
        "0x1.e5981c86dab85p-3 0x1.d0e84c4b262fcp-1 0x1.0a12884dc5015p-1 "
        "0x1.a75d93f1f3013p-3 0x1.b3f46bc59db5dp+0 0x1.88a7889cd3944p-2 "
        "0x1.3abb165ec3277p+0 0x1.c361579862496p-2 0x1.46b50dceaa64ap-2 "
        "0x1.0c9e1f8d1a3c7p-2 0x1.575f4878c3841p-1 0x1.8526dd7a8bbebp-2 "
        "0x1.2e1f2fe1e684cp-2 0x1.90935dc2a6eb0p-1 0x1.9bf50caf4d817p-2 "
        "0x1.c61b40937e510p-2 0x1.468e5a26b3c08p-2 0x1.be3937a1b289dp-2 "
        "0x1.663845264aec4p-1 0x1.6aa45018c2bedp-2 0x1.1cd282208ed8bp+0 "
        "0x1.2158e129116b7p-2 0x1.51c98ec28fa9ep-3 0x1.3d2541aaad676p-2 "
        "0x1.3ba86cf364d29p-1 0x1.e035b297ed104p-1 0x1.60698bdc6a93dp+0 "
        "0x1.5d8e12d3308e3p-2 0x1.9840a85eda989p-1 0x1.b741dd1a3b684p-2 "
        "0x1.09569158d1c8cp-2 0x1.a0a8ffab58419p-2 0x1.774443e2f7a0fp+0 "
        "0x1.90cb8b3683051p-2 0x1.f59c8b2b9d943p-2 0x1.2ca375a241e91p-1 "
        "0x1.d574130f79441p-3 0x1.88ac858fd59f5p-3 0x1.205db0ba6928cp-2 "
        "0x1.4b2c6e4f64b2ep-2 0x1.589e3f66c5ce3p-2 0x1.23feb21f08d82p+0 "
        "0x1.d6c2d9c1733e4p-1 0x1.2bb77a67849b3p-1 0x1.8861e1493bf8fp-2 "
        "0x1.3bf0e51d7e166p-2",
        "0x1.a38721c3a3e6fp-1",
    ),
    ("alternate", 2.5, 8.0): (
        "0x1.a7809a33e929cp-4 0x1.36eac4f478d8fp-3 0x1.433e941b75588p-3 "
        "0x1.af46fe3b97763p-3 0x1.204af3ab645dfp-4 0x1.47788073bf1fdp-3 "
        "0x1.175751d79bb2bp-3 0x1.898d974f66498p-3 0x1.5dcbbfbf5f911p-3 "
        "0x1.59b17f2e75297p-3 0x1.894514f62e95ep-4 0x1.c0c6541827e3bp-4 "
        "0x1.250b3a62bb4a3p-3 0x1.5fd211f1fb687p-2 0x1.2b9f560884405p-3 "
        "0x1.f352e1c1b665ap-4 0x1.26d253c4d804fp-4 0x1.d60bb0bd8d8c5p-4 "
        "0x1.c7c89a7fb49cap-4 0x1.86abaca124513p-3 0x1.6e0d8661e2d14p-3 "
        "0x1.e31a6801f212dp-3 0x1.719eb6355def6p-4 0x1.774eab92a0f52p-3 "
        "0x1.6966daacfc8f5p-3 0x1.76662b6699944p-3 0x1.e6cbdb28e7067p-3 "
        "0x1.2034810b7a405p-3 0x1.53b6b8d2bbb64p-3 0x1.17a08c7fb9eabp-3 "
        "0x1.3622f7bbb20c3p-3 0x1.b23406589ff56p-4 0x1.5a20ea7e5fe90p-4 "
        "0x1.d586599b55242p-4 0x1.bc33d20dd911ep-3 0x1.c5366e3731a8ep-3 "
        "0x1.69d61a3e2cd0bp-3 0x1.6766df924c79cp-3 0x1.50c3cacc50b8dp-4 "
        "0x1.4d09c6055d668p-3 0x1.2f487ac7e80f4p-3 0x1.56e017e5a2b14p-3 "
        "0x1.2057e1232e874p-3 0x1.83f25d9b45838p-3 0x1.3fe7b842d2b52p-3 "
        "0x1.afd486b7f4080p-4 0x1.c17c0e2fb4394p-4 0x1.8e56cad1a487ep-4 "
        "0x1.f3db66bc85c4bp-4 0x1.cd4d2842c61ebp-4 0x1.a0fba2eeaa0a7p-3 "
        "0x1.ae71129b34cbdp-3 0x1.552359b66139fp-3 0x1.f6b252eee8702p-4 "
        "0x1.70647a25be937p-3 0x1.5b9ca36bb1db9p-3 0x1.df41ae53408c4p-4 "
        "0x1.0748a830c2789p-3 0x1.8ba811efe75f0p-3 0x1.df3bcf6e78c29p-4 "
        "0x1.10ea840e80413p-3 0x1.5a2315c000331p-3 0x1.41b90a34498aep-4 "
        "0x1.72644ba1813cep-3",
        "0x1.2f90cf556049ap-2",
    ),
    ("alternate", 4.0, 0.0): (
        "0x1.0478e9d5586a6p+0 0x1.94dede3aed529p-1 0x1.35318065b53bdp+0 "
        "0x1.95fa2a823c286p-1 0x1.0e044a66e0a8fp-1 0x1.497d0a6abba28p+0 "
        "0x1.613910a63da3bp+0 0x1.0ef51aa5a4ccap+0 0x1.0edde6168ec33p+0 "
        "0x1.322b793c82250p+0 0x1.dcba747e6c595p+0 0x1.56dd0a94d9877p-1 "
        "0x1.3fcc0117da4bdp-1 0x1.401d2edf231dcp+0 0x1.77d16b2a4123bp+0 "
        "0x1.b97bff8cfaa23p-1 0x1.b5c97efa87d9fp-2 0x1.6266ab3efa26ap+0 "
        "0x1.a115af328dd8ap-1 0x1.38dc46119c1e7p-1 0x1.62d62896dd282p+0 "
        "0x1.25a999d81492dp+0 0x1.6fa969e4559c3p+0 0x1.2d75df97c07e1p-1 "
        "0x1.3e18aa89317bfp-1 0x1.666af350a17dcp+0 0x1.2a3de16f3ed31p+0 "
        "0x1.5bc9e3afde29ep+0 0x1.67b9b645d6812p-1 0x1.9b22b857fca4cp-1 "
        "0x1.44fd0d270233bp-1 0x1.fb4dc3b48b857p-1 0x1.5a711aaf599ecp-1 "
        "0x1.8421a1000f766p-2 0x1.2af91f91609b9p-1 0x1.45218c0a39350p+0 "
        "0x1.5ac4f3e6e655bp+0 0x1.c48a57a7e625bp-2 0x1.3eb65209d0e32p-1 "
        "0x1.80a443f1a57a4p+0 0x1.e7d67ce1c2f25p-2 0x1.a30c4b61e50a5p-1 "
        "0x1.1a43bc089e774p+0 0x1.79219158f59cap-1 0x1.5205954151873p-1 "
        "0x1.bc0ff7ac8a49fp-1 0x1.0e28d4392d7edp+0 0x1.5eca52f6ca1ccp-1 "
        "0x1.123fa82665906p-1 0x1.3bf862cdb4c7fp+0 0x1.2dabeb07a2e55p-1 "
        "0x1.06edca294f6edp-1 0x1.c352ad351908cp+0 0x1.4de11749d0793p-1 "
        "0x1.692bfc16c54fep+0 0x1.86cf773721653p-1 0x1.e88a1a3559db2p-1 "
        "0x1.2efcdeeade94bp-1 0x1.f337bfa77507ap-1 0x1.2816e1e1d6c3ap-2 "
        "0x1.63e1e95fd598ep+0 0x1.a1d80c1e9fbdep-3 0x1.b3b3f71d60447p-1 "
        "0x1.2b835f0c9b0afp+0",
        "0x1.fbdbc0a4d27aap-2",
    ),
    ("alternate", 4.0, 1.0): (
        "0x1.1a693f4bf4537p-1 0x1.ee7d2e495884ep-1 0x1.7bcd35ab39e2dp-1 "
        "0x1.e6438e2c9872fp-1 0x1.f2c4ae92d408fp-1 0x1.03c3492f06669p+0 "
        "0x1.54eb7be17b709p+0 0x1.7d9b577b51567p+0 0x1.1c117d1378fb2p+0 "
        "0x1.2938cb31382a8p+1 0x1.98d9b83bb4e19p+0 0x1.5a4515b471e83p+0 "
        "0x1.53b3fe0198290p-1 0x1.856be6e883d7bp-1 0x1.dac5d9dea6936p-1 "
        "0x1.78ddf22fe0928p-1 0x1.fd46cf2644a45p-1 0x1.0f7139fead3ccp+0 "
        "0x1.44e2f64fa7642p-1 0x1.0522a295aca93p-1 0x1.663d34ba66f1bp+0 "
        "0x1.01a82475aef5fp+0 0x1.c98b86bf8368dp-1 0x1.3909817a136eap+0 "
        "0x1.4d790f43c12b6p+0 0x1.fbd1c7130de5fp-2 0x1.ea66c135c2f83p-1 "
        "0x1.e4b3a13c734d2p-1 0x1.13b5317b53c34p+0 0x1.da691160b0852p-2 "
        "0x1.53fcddb5bfa3ap+0 0x1.483110adee512p+0 0x1.010259eb51c3ap+0 "
        "0x1.ef63073b6e120p-1 0x1.0e8ca7d4898e4p+0 0x1.9f2a90c1054aap-1 "
        "0x1.4ae6989a1e391p-1 0x1.076f9361d95b1p+0 0x1.9bf0664b3d837p-2 "
        "0x1.b64b54ddfcde4p+0 0x1.53fac2ef41799p-2 0x1.0c376ea2fc664p+0 "
        "0x1.859d00f2c03e2p+0 0x1.82e99f8cd63cdp-1 0x1.a620ea8f0f99cp-2 "
        "0x1.71883a9336502p+0 0x1.1256e6f48f1b9p+0 0x1.3e761cd4fd287p-1 "
        "0x1.516ad9ae8d01ap+0 0x1.fec3547645884p-2 0x1.2449c3c6180b2p-1 "
        "0x1.59418719f2db2p-1 0x1.6dfacac27d6a2p+0 0x1.0293bae1f2b30p+0 "
        "0x1.398c15f44b3e9p-1 0x1.1eec57c25d2f5p+0 0x1.188c0b9d8126dp-1 "
        "0x1.3de0937039b0dp-1 0x1.98f86b8effd53p-1 0x1.e4421df4b39e4p-2 "
        "0x1.557f54d78b3f4p+0 0x1.4f3558f06c04bp-1 0x1.4c0b4dbcd9324p+0 "
        "0x1.d69b4f626ba7dp-1",
        "0x1.3e1e2cd931702p-1",
    ),
    ("alternate", 4.0, 8.0): (
        "0x1.eef08dd1c8d0fp-3 0x1.fe07460f6de09p-3 0x1.bc9bca3926cd8p-3 "
        "0x1.5df0f79cafce0p-2 0x1.e4ba8d3f75202p-3 0x1.c99ab1a049837p-3 "
        "0x1.de4c28323a2fep-3 0x1.2cb9a24f7fe19p-2 0x1.7595bfa29083ep-3 "
        "0x1.22739019fe0e5p-2 0x1.0c7ff3bb398dfp-2 0x1.6c309d9371dafp-3 "
        "0x1.8ac27947e97fcp-3 0x1.dadc6488e6dddp-3 0x1.0fa67be0f950dp-2 "
        "0x1.c5d74b20119abp-3 0x1.6b17fcc4074b4p-2 0x1.0a4945d06379dp-2 "
        "0x1.58b58c0224a46p-2 0x1.29931116cf72cp-2 0x1.b471d6341a95fp-3 "
        "0x1.9d17829e61f5ep-3 0x1.52da43ccaccafp-2 0x1.ca29d26c58b8ep-3 "
        "0x1.3904f5d510faap-2 0x1.e52859925e9b3p-3 0x1.a9a7554a3389bp-3 "
        "0x1.28cddf686d7e5p-2 0x1.30523a9685905p-2 0x1.4d7bf85f3e5b9p-2 "
        "0x1.119a5ae13418fp-2 0x1.2d8807f726d33p-2 0x1.2bf25e3f59588p-3 "
        "0x1.a4100c3ad58bcp-3 0x1.c7f8ad8f4d8b4p-3 0x1.201e5889d32c8p-2 "
        "0x1.7fc6ede6f2fcfp-2 0x1.337d314437ebep-3 0x1.437c6dee8bccbp-2 "
        "0x1.683bc773b6217p-2 0x1.96f18268f3c22p-3 0x1.b5368b3eaab7cp-3 "
        "0x1.8b4539e40da99p-3 0x1.aaf4261c2ad77p-2 0x1.3787340f88814p-2 "
        "0x1.2c6d87248a1d1p-2 0x1.609581bcd087bp-3 0x1.8154ff6e518dcp-3 "
        "0x1.443a83d94992cp-2 0x1.11e5a4e115234p-2 0x1.07fc8125b40b1p-2 "
        "0x1.1c6f30058bc80p-2 0x1.c15d2b42b1fd6p-3 0x1.4fa50f337b6aep-2 "
        "0x1.16cb9000823fcp-2 0x1.3fd551db65bb0p-2 0x1.aee8a1dc8cf77p-3 "
        "0x1.048d6a46b6df1p-2 0x1.96e8ce7a37c79p-3 0x1.8669567c2e263p-3 "
        "0x1.c63932675756dp-3 0x1.16914bc6035d9p-2 0x1.4e96729212982p-3 "
        "0x1.6fc43a2239b6bp-3",
        "0x1.64089d7838b64p-1",
    ),
    ("alternate", 7.3, 0.0): (
        "0x1.0904f072d86c6p+1 0x1.51ce6d5f93257p+1 0x1.6e911a780b468p+0 "
        "0x1.15725f4714a78p+1 0x1.fda63a60907e6p+0 0x1.1b1f277abe752p+1 "
        "0x1.f622d09c50624p+0 0x1.f57de731b3193p+1 0x1.b38d2c8877f0cp+0 "
        "0x1.c986698f81efep+0 0x1.a6086cf6cabb0p+0 0x1.596d2c84c4eedp+1 "
        "0x1.c3e1eafae5acap+1 0x1.087bce795bf7ap+1 0x1.3441259a37b9dp+1 "
        "0x1.49f91ba69a7b3p+0 0x1.2fa2acff21030p+0 0x1.04ebc6a1f18adp+1 "
        "0x1.0cdba862f44fep+1 0x1.92f6053843674p+0 0x1.ddcf91327d6e6p+0 "
        "0x1.40be74ec741eap+1 0x1.7f6a5dc4dc87ap+0 0x1.a84c65ebefa22p+0 "
        "0x1.deea6db763230p+0 0x1.17c4e94ea8fdap+0 0x1.557f9b8d805c4p+1 "
        "0x1.848205e43b490p+0 0x1.1834fb45361e0p+0 0x1.eaa4eac6f7becp+0 "
        "0x1.c9ae86a997d7cp+0 0x1.d1663e51ecd4ap+0 0x1.5f035c5fb5b7cp+1 "
        "0x1.d3eb0ee18b24ap+0 0x1.ef74a1266adf0p-1 0x1.c4af227bfc827p+0 "
        "0x1.130f1874ed566p+1 0x1.2caada9f12cd0p+1 0x1.00638f966f2c4p+1 "
        "0x1.38cb7b86c8fdfp+1 0x1.2057b20bf51d2p+1 0x1.1041158e968b6p+1 "
        "0x1.14d2a53573c29p+1 0x1.f5492dac73510p+0 0x1.1211a86142d68p+1 "
        "0x1.9b9ce56529ff4p-1 0x1.a1104cdd7df19p+0 0x1.a959815b1d3ccp+1 "
        "0x1.58f8d863d9a0dp+1 0x1.9ce89e48dd9f2p+0 0x1.0d6635c250302p+1 "
        "0x1.eb9e58bca0a53p+0 0x1.84dd9e7b7706ap+0 0x1.b28fe69ce44cbp+0 "
        "0x1.dcc0a3deb243ep+0 0x1.0a636e81321b7p+1 0x1.6b600fd6dd00cp+1 "
        "0x1.2f7a57e4e9ef3p+0 0x1.5bd5af12a7450p+0 0x1.55389bf506210p+0 "
        "0x1.12237f2008d0cp+1 0x1.14e040cc8f6d5p+1 0x1.a05dedc248b78p+1 "
        "0x1.4af62fbbe314fp+0",
        "0x1.ebf86622a72b8p-3",
    ),
    ("alternate", 7.3, 1.0): (
        "0x1.cbd56ae361c72p+0 0x1.d30a64bc3bd24p+0 0x1.13024801fcdc2p+1 "
        "0x1.4bcd205066c85p+1 0x1.bd5e5481a87e1p-1 0x1.3aad6a3920936p+1 "
        "0x1.e44515d998440p+0 0x1.e6efa15ac9dd0p+0 0x1.61fc11e85f4b8p+1 "
        "0x1.01f3c6dc334ecp+1 0x1.303a3baf31af5p+1 0x1.e4c7998e9515cp+0 "
        "0x1.22adb3792ccefp+0 0x1.96f98480dfd38p+0 0x1.bb6d2c319682cp+0 "
        "0x1.484254a1f30b0p+0 0x1.376bbdeba0bbep+0 0x1.7faa3cf9da1fap+0 "
        "0x1.eb1e61568de43p-1 0x1.20c0c5e0c3496p+1 0x1.0c454cd1beffap+1 "
        "0x1.668b8fcb1f0b6p+0 0x1.dab8086a6a2c8p+0 0x1.a3a1c251761b8p+0 "
        "0x1.2abc0294385b1p+0 0x1.03ffeeb193d69p+0 0x1.5d3a647dc63c8p+0 "
        "0x1.c2fefdada1a88p-1 0x1.2023429f3ae62p+1 0x1.140f7a857a6b0p+1 "
        "0x1.43f13f29d0594p+0 0x1.14947a50b8c72p+1 0x1.27c91b11556fbp+0 "
        "0x1.eacbb0770cbbap+0 0x1.11b2836d7270fp+1 0x1.74475f061f93bp+0 "
        "0x1.7dd12e7fca985p+0 0x1.4550d69925034p+0 0x1.8d97c307ac3b8p-1 "
        "0x1.1dab9e32f9afcp+0 0x1.673e778f3527dp+0 0x1.8e3d9233b1cd3p+0 "
        "0x1.8a85bdb39cec2p+0 0x1.82c7c7f6016a3p+0 0x1.1e46f247a576ap+1 "
        "0x1.0507debceaeb4p+1 0x1.0ec14131592bap+1 0x1.f6bd1def384f8p-1 "
        "0x1.cfe9df50dd386p+0 0x1.94dcd19502502p+0 0x1.f5f1abf7f8b1ap+0 "
        "0x1.881816e9a9086p+0 0x1.8f04dbcc7c506p+1 0x1.4992950b6133cp+0 "
        "0x1.d7394687191d2p+0 0x1.7ffd64a64f9c7p+0 0x1.bc4d938025602p+0 "
        "0x1.ab0a4ce462b03p+0 0x1.6baf1ad42e02dp+0 0x1.23f44fc5cf85ep+0 "
        "0x1.7c8ea80835f13p+0 0x1.e1f53320130bcp+0 0x1.23132686a4f06p+0 "
        "0x1.f4f72ed5f7812p+0",
        "0x1.4d605749cfeccp-1",
    ),
    ("alternate", 7.3, 8.0): (
        "0x1.da13005a0edd0p-2 0x1.7757ecb726d3ap-2 0x1.0014873232d5bp-1 "
        "0x1.a8ce636833923p-2 0x1.7ecbebcd99c34p-2 0x1.c14ed1e4f6907p-2 "
        "0x1.5741c6396057cp-2 0x1.1bfe42d919136p-1 0x1.8203683d7b986p-2 "
        "0x1.052eec351523cp-1 0x1.04e59d7739662p-1 0x1.be5bce2bd1438p-2 "
        "0x1.da688a66dd1cdp-2 0x1.2b9844f1e6a0cp-1 0x1.7c88fdb5ffaf2p-2 "
        "0x1.dca7e4462f50cp-2 0x1.adfdd7705a95ep-2 0x1.ab4a3203f481dp-2 "
        "0x1.f1a91bb7951d4p-2 0x1.38469c97ac19ap-2 0x1.18aa49386d47ap-1 "
        "0x1.9fcf2a1ade0fdp-2 0x1.91a0b181ee4cep-2 0x1.a0284a2397e65p-2 "
        "0x1.741af17658dcap-2 0x1.bbba31e289464p-2 0x1.98250b4ec58c2p-2 "
        "0x1.0624d21752054p-1 0x1.0d8290d27ec66p-1 0x1.c60a3287aadeep-2 "
        "0x1.9cdfad697a6f8p-2 0x1.0c4a6c9d6ecaap-1 0x1.0a525c86451b4p-1 "
        "0x1.19bdff779b500p-1 0x1.269065f524fe3p-1 0x1.3398bda068604p-2 "
        "0x1.0802398c76a92p-1 0x1.16d687f1e02d2p-1 0x1.239b109c227e2p-1 "
        "0x1.565e5bcc3758ap-2 0x1.cdb87e28dd314p-2 0x1.c4ef65322718bp-2 "
        "0x1.8ee9dbd3aff89p-2 0x1.b43e533da765ep-2 0x1.ccb3925165a04p-2 "
        "0x1.94d634a0e713ap-2 0x1.96e6631e1bf23p-2 0x1.6e580fb618166p-2 "
        "0x1.ece175dcf7e47p-2 0x1.f4e63a11d1899p-2 0x1.92ab655bffea6p-2 "
        "0x1.b3c6c2c0c6bcap-2 0x1.c5111f56224c7p-2 0x1.c2530cc7d937fp-2 "
        "0x1.154603e6c9951p-1 0x1.876d1253bf698p-2 0x1.2514d410357fbp-1 "
        "0x1.f3274ea163285p-2 0x1.2539ea90f20e4p-1 0x1.648b316cbda2ep-2 "
        "0x1.0904dba4b87bap-1 0x1.9f12b7c2b51e5p-2 0x1.2fff790466852p-2 "
        "0x1.bb46a49f4edd9p-2",
        "0x1.4a36d1c6af376p-1",
    ),
    ("alternate", 12.0, 0.0): (
        "0x1.19454c54cfa83p+1 0x1.155688f8e2a22p+1 0x1.997b2e3ddac02p+1 "
        "0x1.7d10a16e7a806p+1 0x1.55ac61c388ea6p+1 0x1.37e5052dcac36p+1 "
        "0x1.9c5e0c7abe48ap+1 0x1.24fe02746b08ep+2 0x1.151ba44cde2c7p+1 "
        "0x1.3c5759166b28dp+1 0x1.57b4aabe818e3p+1 0x1.f430479cec0e2p+1 "
        "0x1.0282f8c1a0dfap+2 0x1.b01352cf69afap+1 0x1.478792faf67acp+1 "
        "0x1.b17ff645352d6p+1 0x1.462eacc31f554p+1 0x1.ee0cb5df352dcp+0 "
        "0x1.de1f2b913f5ecp+1 0x1.e9bfa7ac001cap+0 0x1.777de2660f83cp+1 "
        "0x1.be408267f60d3p+1 0x1.ab4ebe8d86482p+0 0x1.b32f701aa1550p+1 "
        "0x1.8b48018276d90p+1 0x1.8fdee3a8d2d46p+1 0x1.f51b7afb61653p+1 "
        "0x1.517f530c8be65p+1 0x1.31b5b1a72d152p+1 0x1.ef717f3fc3090p+1 "
        "0x1.798ee46677568p+1 0x1.cf20fb88c7f89p+1 0x1.a70b60816ef6fp+1 "
        "0x1.d3cd9f38fff66p+1 0x1.377a6674da003p+1 0x1.2958ccf5e1054p+1 "
        "0x1.b0bf5f03fc923p+1 0x1.42faf94595606p+1 0x1.3c3309b339f86p+1 "
        "0x1.e41cb4c5251d8p+1 0x1.a48c089652954p+1 0x1.6212b84eb2016p+1 "
        "0x1.a763ace228be2p+1 0x1.8410d0828ad96p+1 0x1.e10fbe2278bc8p+0 "
        "0x1.05f149bc5f0cep+2 0x1.69e005016aa74p+1 0x1.525a769a8553ep+0 "
        "0x1.3236e47093374p+2 0x1.18682fcbf21eep+1 0x1.cb8e1c96cf664p+1 "
        "0x1.650f9add2dca2p+1 0x1.605b76164fcb7p+1 0x1.de9b74eb2eacdp+1 "
        "0x1.a3c4aedab0d29p+1 0x1.b4e42955f52afp+1 0x1.13f87ce6e165ap+1 "
        "0x1.839290fa58a4bp+1 0x1.92d150e39693ap+1 0x1.095f97aaf69f9p+2 "
        "0x1.f800100c5b4a3p+1 0x1.3ac9908828ba1p+1 0x1.a59b1ea21ea7bp+1 "
        "0x1.2938cd5f39f74p+1",
        "0x1.e4cfcb63b6166p-2",
    ),
    ("alternate", 12.0, 1.0): (
        "0x1.c36b72d7bc3f0p+1 0x1.91f09c5fd2d19p+1 0x1.462f54164793ap+1 "
        "0x1.83ed5758936e2p+1 0x1.70c5f15aa2021p+1 0x1.293f43e52bb02p+1 "
        "0x1.271d7828f7d83p+1 0x1.f8ac4afec6d5ep+1 0x1.5eba0f55dd567p+1 "
        "0x1.9d8764e6e0168p+1 0x1.4b3af7bce87c5p+1 0x1.a346a9d8f9346p+1 "
        "0x1.794425329ac7ep+1 0x1.5e5a9179160a1p+1 0x1.402122595a55ep+1 "
        "0x1.48a9bde353daap+1 0x1.21b83a7f51918p+1 0x1.10835841f239ap+1 "
        "0x1.b8484821270c6p+1 0x1.02d72ffa37570p+2 0x1.538d72e1c0c02p+1 "
        "0x1.520aab8841884p+1 0x1.d8b3e417b9261p+0 0x1.4f0c5eb4d4217p+1 "
        "0x1.a0ba6a4f420c8p+1 0x1.7f06b742a058ep+1 0x1.4450ec4e76ac6p+1 "
        "0x1.669bcb6f0b3fep+1 0x1.d44baa2483470p+0 0x1.716bc88d5857bp+1 "
        "0x1.82fd9fe498f8ep+1 0x1.868659a313019p+1 0x1.8753d8cbd148cp+1 "
        "0x1.263c092409b20p+1 0x1.774c464d6cb37p+1 0x1.5285bcf035a0dp+1 "
        "0x1.2028b43843584p+1 0x1.b1f95fe3f84f0p+1 0x1.ef53d94bdb87ep+1 "
        "0x1.18e3252290036p+1 0x1.174e42c4baac5p+2 0x1.74163dcf6db3ep+0 "
        "0x1.1b95038761aedp+1 0x1.6363e51d690eap+1 0x1.bbccb5c6c00cfp+1 "
        "0x1.91b69eb70f52ap+1 0x1.4493faa9524b4p+1 0x1.08776c82117c5p+1 "
        "0x1.49c277649be54p+1 0x1.07e8456b7b7bcp+2 0x1.1d5bd629f4adfp+1 "
        "0x1.1a28ed5129630p+1 0x1.1297f4f83309ep+1 0x1.4674a89c88ca0p+1 "
        "0x1.3db654a5b5bdcp+1 0x1.3c1c1e825ffdep+1 0x1.d36382934cb06p+1 "
        "0x1.2c84db11e6d45p+1 0x1.2e9e69d316d85p+1 0x1.4861dfa2e2952p+1 "
        "0x1.90f9c1fd238fep+1 0x1.b1715ef812e52p+0 0x1.79d8c0091910dp+1 "
        "0x1.f64219c53ca32p+1",
        "0x1.2563b6a51131dp-1",
    ),
    ("alternate", 12.0, 8.0): (
        "0x1.b6b8dac866842p-1 0x1.db6e1d5928840p-1 0x1.8c7b28e19fdd7p-1 "
        "0x1.79f3afab073b6p-1 0x1.7f258d361f280p-1 0x1.ce2155f1ed5eep-1 "
        "0x1.741751dfff7edp-1 0x1.8d67faccc5952p-1 0x1.d616f5979d36ep-1 "
        "0x1.87d65eca89adap-1 0x1.48163d7dfa839p-1 0x1.7b15a70458914p-1 "
        "0x1.538ca6db7ff55p-1 0x1.562ca3889d076p-1 0x1.86fa6cd25bfdap-1 "
        "0x1.a99dd09bd55c9p-1 0x1.607eb1ecd3f96p-1 0x1.8217fdce83c04p-1 "
        "0x1.a0797d138a825p-1 0x1.768d2c37cd7adp-1 0x1.6f36dc9324874p-1 "
        "0x1.6d887d259a0e8p-1 0x1.6e5fa421c3158p-1 0x1.2b86ce8ce3f9ap-1 "
        "0x1.06d2ad1d51341p-1 0x1.ea31b96e992f2p-1 0x1.a28948f3410fbp-1 "
        "0x1.59ff74d324ec0p-1 0x1.b7a25e7c8f04ap-1 0x1.6fd3c3ee079bap-1 "
        "0x1.6f300dc6cf50dp-1 0x1.979febd373daep-1 0x1.6d445dc8b8ca4p-1 "
        "0x1.6557bff3ae663p-1 0x1.46b5a71c6ad64p-1 0x1.73ec2dde44cd3p-1 "
        "0x1.994d412f7f264p-1 0x1.433140c2c1c2ep-1 0x1.616cbce44a75fp-1 "
        "0x1.596a626c37146p-1 0x1.f25c68ddccef2p-1 0x1.a8f7520c78554p-1 "
        "0x1.d0d7555e3bcc7p-1 0x1.6733c32f702bap-1 0x1.f47d3d6911248p-1 "
        "0x1.6d4b1fc013900p-1 0x1.779578f83d4a2p-1 0x1.9d36eff726a5ep-1 "
        "0x1.2234cdf0fcd4cp-1 0x1.7bf58d25a8e03p-1 0x1.ad7e0051a6583p-1 "
        "0x1.cb0611ae0fc13p-1 0x1.41ef5c575ee52p-1 0x1.3118ccb0f86c0p-1 "
        "0x1.cc8997504ce8ap-1 0x1.76d81775d5e7ap-1 0x1.83399d04e696fp-1 "
        "0x1.868c11330ea5ep-1 0x1.559d56e8871dcp-1 0x1.c1bf69a298b6bp-1 "
        "0x1.5591acb4fb6e1p-1 0x1.69fe04df12123p-1 0x1.3f33907be5f3ep-1 "
        "0x1.789907ca12224p-1",
        "0x1.7ca20b6384440p-2",
    ),
    ("alternate", 13.0, 0.0): (
        "0x1.9276a58b75894p+1 0x1.b6e30039ec763p+1 0x1.cb9eb48df2cf4p+1 "
        "0x1.c5af40b82f278p+1 0x1.74d4c2ca4e0acp+1 0x1.52044000b6a0ep+1 "
        "0x1.217fa5143b37fp+2 0x1.da3dc4f730ad7p+1 0x1.1ffc5e19bd1b3p+1 "
        "0x1.bac8a06d4bd42p+1 0x1.430c43158238cp+1 0x1.ba5c13c72d721p+1 "
        "0x1.09a1be73a3662p+1 0x1.c9eec3aec6bc7p+1 0x1.9b31aa9a35c86p+1 "
        "0x1.52d5125594bebp+1 0x1.5dc1f00fe4917p+1 0x1.17265abdf90b3p+1 "
        "0x1.0ebc38fde7a56p+2 0x1.a867d16a409a2p+1 0x1.848e726134284p+1 "
        "0x1.7b628f0ba30e7p+1 0x1.c86848eaba7d9p+1 0x1.3834c07349c92p+2 "
        "0x1.8a781abbac022p+1 0x1.9c8f14898ea82p+1 0x1.b4584ae9a94cap+1 "
        "0x1.30b46e558414bp+1 0x1.468d65c53fbf8p+1 0x1.a1691de2ecb25p+0 "
        "0x1.ce5720099f594p+0 0x1.a861fbcbb3ffcp+1 0x1.13a0400a18f97p+1 "
        "0x1.1e869d0c25424p+2 0x1.8ce0d57cb7277p+1 0x1.8977ebc845783p+1 "
        "0x1.75a66a481be80p+1 0x1.8d397df4ff582p+1 0x1.799b29b800242p+1 "
        "0x1.96a939c605202p+1 0x1.b3e43b9815a94p+1 0x1.5db394f4a4428p+1 "
        "0x1.4d3f1f91b6956p+1 0x1.151f442766db8p+2 0x1.c5217513de568p+1 "
        "0x1.96ebb9c3865a4p+1 0x1.46124741e59aep+1 0x1.a0177f209cb87p+1 "
        "0x1.91887620c4250p+1 0x1.21d8fbde8f4dep+2 0x1.aabc545d0dc77p+1 "
        "0x1.dc58593e6b910p+0 0x1.8e654726e81a4p+0 0x1.dde5062eb9b18p+1 "
        "0x1.2cadadeb07f81p+2 0x1.b145633199ae0p+1 0x1.25f377d94e980p+1 "
        "0x1.0db440ea37e10p+2 0x1.2088487fb2d6ep+1 0x1.0c6c23b4c3f32p+2 "
        "0x1.0d600f91edd43p+2 0x1.c5ace671da42dp+1 0x1.d29e793010722p+1 "
        "0x1.6463414092377p+1",
        "0x1.31ed9c5a04918p-4",
    ),
    ("alternate", 13.0, 1.0): (
        "0x1.2f7e98d4fd2dbp+1 0x1.48637186cc141p+1 0x1.0348709579c98p+1 "
        "0x1.3ebfacb826025p+1 0x1.557d6b86de3fdp+1 0x1.8d3a114fa0894p+1 "
        "0x1.bed95e0d4b883p+1 0x1.5c22e62b45c7bp+1 0x1.ba3a1531fedabp+1 "
        "0x1.bfcc5d45e7624p+1 0x1.47722bacc4866p+1 0x1.be42f9ed1f78cp+0 "
        "0x1.c3d023cbcdd98p+1 0x1.2fadac5a08d88p+1 0x1.056cb165bb6d8p+2 "
        "0x1.b3ca327de3b7cp+1 0x1.bc567bdb92230p+1 0x1.5e64e28ca186ap+1 "
        "0x1.eadb4361762a0p+1 0x1.e4f2b1b691822p+1 0x1.b4ad2bf1f0bbdp+1 "
        "0x1.909c41a891844p+1 0x1.2a214b5674304p+2 0x1.49c0b5c7381bap+1 "
        "0x1.7d8e6f8752110p+1 0x1.0fcd597eb62d2p+1 0x1.16dc59f27ccafp+1 "
        "0x1.826dd73dda623p+1 0x1.1344d2ad24afep+2 0x1.91f9d4e1e2c82p+1 "
        "0x1.dfc0ec77ed16ep+0 0x1.04879437e8ad4p+2 0x1.3599b6bdbfd48p+1 "
        "0x1.ba609899e5b9cp+1 0x1.bfdf0308c70a9p+1 0x1.54ec478c0baeap+1 "
        "0x1.da82fe9859f31p+1 0x1.e31ca3487663ap+1 0x1.33bc58489c55cp+1 "
        "0x1.c4e388dfb7d66p+1 0x1.b247fba555566p+1 0x1.fc78ace33b854p+1 "
        "0x1.0bffafa49996dp+1 0x1.e7e71aa3302f8p+0 0x1.0912f95f13969p+1 "
        "0x1.898378b8c4bacp+1 0x1.57eaa549966b2p+1 0x1.00b4dee155eaap+1 "
        "0x1.508a020a071b1p+1 0x1.8f57912ef9ea0p+1 0x1.6e194adc02caap+1 "
        "0x1.0c12ca5b71903p+1 0x1.6f4a305f171edp+2 0x1.cc15bd60beea8p+0 "
        "0x1.8200a7131a5bcp+1 0x1.4945b0bdc4baep+1 0x1.424b901a6269ep+1 "
        "0x1.6ff1c2d4fb772p+1 0x1.44bae1e89f7bep+1 0x1.dd6b46b9a210cp+1 "
        "0x1.59a0632ea0234p+1 0x1.d6a0933c3cf14p+1 0x1.366277291a103p+1 "
        "0x1.9d87057ffc077p+1",
        "0x1.ee74218a29777p-1",
    ),
    ("alternate", 13.0, 8.0): (
        "0x1.67b94183bf8ecp-1 0x1.bd654cdd5a010p-1 0x1.a486555da4cd6p-1 "
        "0x1.e899d1c5efc30p-1 0x1.818ebab97117bp-1 0x1.74162d50a9631p-1 "
        "0x1.c86e43d7448e6p-1 0x1.83314309b78c5p-1 0x1.a066ea720165cp-1 "
        "0x1.942a7a7c002d8p-1 0x1.f2c5acc3a72e8p-1 0x1.a14bec1cbcdd7p-1 "
        "0x1.3eb5d6477afaap-1 0x1.820489b8d52fcp-1 0x1.9052a95a9804cp-1 "
        "0x1.96c4f71f13735p-1 0x1.65d4e3887c45fp-1 0x1.8177e6f77ec38p-1 "
        "0x1.ba77dec300146p-1 0x1.7661d4eb80362p-1 0x1.9b68712ea069ap-1 "
        "0x1.6c6fd8e9bcb5cp-1 0x1.a124df7d91015p-1 0x1.7355f9fd71265p-1 "
        "0x1.9e88bd5f76182p-1 0x1.040148bb452a6p+0 0x1.cb21e8ea2535ap-1 "
        "0x1.cefc18bd7ae42p-1 0x1.a22e6d68aa3ffp-1 0x1.b277ad0b4cdabp-1 "
        "0x1.629a1eeaf5287p-1 0x1.e634bb1e295e0p-1 0x1.f58966a46f0d4p-1 "
        "0x1.2b30dc5001755p-1 0x1.76fa5aa9b25bap-1 0x1.89baf22433324p-1 "
        "0x1.8f220c4b001a2p-1 0x1.839bb85151062p-1 0x1.65e749e9ba56fp-1 "
        "0x1.e7871e7d11f2dp-1 0x1.78a8fd9c9de3fp-1 0x1.a29d4cc4a7914p-1 "
        "0x1.dd23ed15215a4p-1 0x1.6a3470409a955p-1 0x1.b1616e04769c5p-1 "
        "0x1.92ccd94c04d0ap-1 0x1.61721d8632a9fp-1 0x1.d4a519697b3f7p-1 "
        "0x1.46f84b8605ce8p-1 0x1.59fe8267ed86ap-1 0x1.9971c19d546cbp-1 "
        "0x1.bf716ccf5935ep-1 0x1.a0874a7e0cfe2p-1 0x1.e980d139f6754p-1 "
        "0x1.b66f4fa6cdaadp-1 0x1.56a5ccd98b1d2p-1 0x1.d3f47b2a9a946p-1 "
        "0x1.af1b691129b2cp-1 0x1.8d0739d6b0939p-1 0x1.7bde7258a0d60p-1 "
        "0x1.c79164dc8fdcap-1 0x1.05181e8f4ad78p+0 0x1.31b4ede47f6f6p+0 "
        "0x1.83145b8e09974p-1",
        "0x1.f13ea6d4572c0p-4",
    ),
    ("alternate", 40.0, 0.0): (
        "0x1.5c3851fd51318p+3 0x1.130f696cb2ef0p+3 0x1.7287fb3b4b051p+3 "
        "0x1.3af66e3821749p+3 0x1.1f19acafccd74p+3 0x1.48cdcb2cbd109p+3 "
        "0x1.2dcdd6ac5919ap+3 0x1.3fdaa79748ee4p+3 0x1.419ab543916cdp+3 "
        "0x1.110df1ea39d82p+3 0x1.851789585fc4ep+3 0x1.1d38a7e4f0a18p+3 "
        "0x1.48a69f863248bp+3 0x1.42fe7804fd004p+3 0x1.511c0310c6258p+3 "
        "0x1.3f75b29a1ef09p+3 0x1.3ce0a91a7896bp+3 0x1.4e1584a290491p+3 "
        "0x1.134faf006e168p+3 0x1.9e8d1a98d4d25p+3 0x1.50c3ea18f3c05p+3 "
        "0x1.24b105297978dp+3 0x1.0271b2c6293f9p+3 0x1.400e0469dba00p+3 "
        "0x1.549de84364329p+3 0x1.947d21ef96e64p+3 0x1.20350bdd18208p+3 "
        "0x1.3d3746a5f80d6p+3 0x1.2b33949c5c3d4p+3 0x1.a71319df1d7ddp+3 "
        "0x1.59a7306e1da1bp+3 0x1.6b2ba68532816p+3 0x1.19ca5c4f8036fp+3 "
        "0x1.22ba3ce6e94eep+3 0x1.4327eeeef36bfp+3 0x1.29650fbf375acp+3 "
        "0x1.69dd0921a2645p+3 0x1.58be7a0202d0ep+3 0x1.2710b7d2d4efdp+3 "
        "0x1.89f09c0cae7a4p+3 0x1.43970a5e96c64p+3 0x1.28c036917f38bp+3 "
        "0x1.79796c2fab7e2p+3 0x1.8187a558a08dcp+3 0x1.ca0dc9704d480p+2 "
        "0x1.5693e96ea5bb7p+3 0x1.dfe3c7597e344p+2 0x1.606ef916648f0p+3 "
        "0x1.f1ae9c4dff6edp+2 0x1.7a5d0649a0f88p+3 0x1.02f84ed14a786p+3 "
        "0x1.1ab054576734dp+3 0x1.83231aac0128bp+3 0x1.8275b4ffe1b6dp+3 "
        "0x1.3e629a3bf6e2fp+3 0x1.1181771342d2fp+3 0x1.200913735e59ap+3 "
        "0x1.148cc7f43e438p+3 0x1.e59174100bc0fp+2 0x1.41aa76173a7c7p+3 "
        "0x1.31f49096921acp+3 0x1.3aa67d7f985cdp+3 0x1.435776fbe6b22p+3 "
        "0x1.393c406a791dep+3",
        "0x1.e156ae49d6123p-1",
    ),
    ("alternate", 40.0, 1.0): (
        "0x1.4bd02be945d18p+3 0x1.3f2936afdf257p+3 0x1.351f4e6078bdep+3 "
        "0x1.40aba400e011ep+3 0x1.06c0513e6851ep+3 0x1.6eef23759c610p+3 "
        "0x1.3e4891ab15910p+3 0x1.369dc4396e062p+3 0x1.2d21fa0ac3a85p+3 "
        "0x1.cc78babf97d02p+2 0x1.73083901e4ce5p+3 0x1.be01cd16ca092p+2 "
        "0x1.f82d9ddf06b48p+2 0x1.0e00d19bf37bap+3 0x1.2b822eacb3779p+3 "
        "0x1.07d6979e24e82p+3 0x1.f63756892c6d6p+2 0x1.872034898a4b5p+3 "
        "0x1.4c5396f748154p+3 0x1.26aac24611ffdp+3 0x1.10c0b04110112p+3 "
        "0x1.038e2142483cfp+3 0x1.266e8514bacb4p+3 0x1.0c621cc7f6bfdp+3 "
        "0x1.ed315d6c68778p+2 0x1.495fd71168cfbp+3 0x1.0515cb36dcc1cp+3 "
        "0x1.0770f264ddf12p+3 0x1.54870d02b6909p+3 0x1.2532913b74e8fp+3 "
        "0x1.00522e9859f98p+3 0x1.23be4fc45749fp+3 0x1.346a845e2c600p+3 "
        "0x1.1b23d03c94896p+3 0x1.0326fd17a7279p+3 0x1.5cdd8861bf284p+3 "
        "0x1.7484806140d05p+2 0x1.0e2fc02f82fa9p+3 0x1.23e6b91698a32p+3 "
        "0x1.1a397eaffcce2p+3 0x1.f344a3ccbb2f3p+2 0x1.e21a70d1517cap+2 "
        "0x1.0a01ee4235169p+3 0x1.2eeb77269b619p+3 0x1.924d45b9b71f8p+3 "
        "0x1.2c9f8ca1c7808p+3 0x1.2492bed6637c5p+3 0x1.fe9b0ae453ff6p+2 "
        "0x1.d56fe20149732p+2 0x1.3e5e77cfefdd1p+3 0x1.216380a8d4f20p+3 "
        "0x1.12448924b6861p+3 0x1.1e472787ea557p+3 0x1.0d9e9eaaa8688p+3 "
        "0x1.69e8774dc60dep+3 0x1.fb063f4226ed5p+2 0x1.21175124437e0p+3 "
        "0x1.3dfb88633118cp+3 0x1.03457fdaadbfep+3 0x1.47787ad44a80fp+3 "
        "0x1.3d184a04c8dd0p+3 0x1.2864565146f42p+3 0x1.414941c010ba7p+3 "
        "0x1.1af87b584c310p+3",
        "0x1.f08baa1139558p-2",
    ),
    ("alternate", 40.0, 8.0): (
        "0x1.45cd893b7a44dp+1 0x1.528c8819f39d9p+1 0x1.31faddba6e29dp+1 "
        "0x1.5178038508cc4p+1 0x1.2885379514a3fp+1 0x1.ffedb4cb9cec4p+0 "
        "0x1.398657db6d0d3p+1 0x1.256c89b3fe3f1p+1 0x1.306161177d7ecp+1 "
        "0x1.39ca6d9334045p+1 0x1.4b2814aa7806cp+1 0x1.3d52dc2440a61p+1 "
        "0x1.77a533cacbab9p+1 0x1.6591fe4c7b37fp+1 0x1.35de3f7c5c623p+1 "
        "0x1.564ec6236a933p+1 0x1.565200478a4cep+1 0x1.1da67e5a95775p+1 "
        "0x1.5427b8ef58588p+1 0x1.5223d6c56ac5cp+1 0x1.313208bf17343p+1 "
        "0x1.611f12566ec6cp+1 0x1.2525f49ebb8d2p+1 0x1.4e09a4750710cp+1 "
        "0x1.32a8e2bad214ap+1 0x1.3e4862eeef9aap+1 0x1.214c974cca44dp+1 "
        "0x1.4433220753b58p+1 0x1.42fef4d0d55c0p+1 0x1.7da61953f1b0ap+1 "
        "0x1.361924fd0a91ap+1 0x1.2952792861846p+1 0x1.46c148121a35ep+1 "
        "0x1.263de9832f946p+1 0x1.08c1369f2bf0ap+1 0x1.526d45182619fp+1 "
        "0x1.285bfd0ef60f8p+1 0x1.3ce714c4340f9p+1 0x1.3966dd71bb726p+1 "
        "0x1.513397cb8ad04p+1 0x1.42b706d5eb02cp+1 0x1.5bcafafe110dep+1 "
        "0x1.3262ad963f042p+1 0x1.3ab404a700875p+1 0x1.480eed3b8bc6bp+1 "
        "0x1.5f214d63a2993p+1 0x1.55fe398485cc3p+1 0x1.3f1b2c4d80b2bp+1 "
        "0x1.f6a0f2e6b9391p+0 0x1.56c4912440772p+1 0x1.276357b407dd2p+1 "
        "0x1.4c255c90f4593p+1 0x1.2fd92cce2cf18p+1 0x1.23af923411fa9p+1 "
        "0x1.404861038f9fcp+1 0x1.f234e8e0b7205p+0 0x1.5935574f022c6p+1 "
        "0x1.6109c1166fe34p+1 0x1.78ddb777129afp+1 0x1.53e1646b7cd24p+1 "
        "0x1.116bf716bdb01p+1 0x1.33de14be33f7ap+1 0x1.517647e1a3b7dp+1 "
        "0x1.5438f6ec4c86fp+1",
        "0x1.d0991e689b1eep-1",
    ),
    ("alternate", 170.0, 0.0): (
        "0x1.6978d8adeac01p+5 0x1.488de8863256cp+5 0x1.5102a155d838ep+5 "
        "0x1.3da809fa504c0p+5 0x1.61e3f876a3c23p+5 0x1.577ad85805b70p+5 "
        "0x1.35b3ddb5857fdp+5 0x1.620469dafc1a6p+5 0x1.4d08454388102p+5 "
        "0x1.52097dc713cbfp+5 0x1.4c979915414c1p+5 0x1.3b159ddee0c53p+5 "
        "0x1.5aba4dd9f3a94p+5 0x1.5919273a50c67p+5 0x1.53e0b35e96f9ap+5 "
        "0x1.5b3ea9ee784f3p+5 0x1.57f4ee0af9512p+5 0x1.4990c66cc8956p+5 "
        "0x1.517206c896617p+5 0x1.593dd9fcc2ec4p+5 0x1.62f50aa5f31e4p+5 "
        "0x1.72169ba62abc1p+5 0x1.4a019e7ab8d65p+5 0x1.2ff6d1fbcc9f2p+5 "
        "0x1.5d4ecf16c263fp+5 0x1.34c922f16769ep+5 0x1.3738a44074bbap+5 "
        "0x1.57af808f314d7p+5 0x1.5130ca7604bccp+5 0x1.4a70980f76eb8p+5 "
        "0x1.50798c0a70b66p+5 0x1.5c982ceeafc8ep+5 0x1.67f136dcc64cbp+5 "
        "0x1.4e38944f006e8p+5 0x1.60adbcf88be8fp+5 0x1.4f7bd68b5b901p+5 "
        "0x1.508e66a330b96p+5 0x1.4820b115de181p+5 0x1.66e0c48ebf672p+5 "
        "0x1.80f4dc478f7cep+5 0x1.603795d9adbf2p+5 0x1.4123f344edfc6p+5 "
        "0x1.6c965829336e4p+5 0x1.3c57f19d98402p+5 0x1.5147e8c6cab67p+5 "
        "0x1.37c84a0672c95p+5 0x1.3e8c39b113bc0p+5 0x1.696e865d035c1p+5 "
        "0x1.4b596d90ab0f3p+5 0x1.5520f69d08734p+5 0x1.5d1b4f77f3ae3p+5 "
        "0x1.9315ac1e5265cp+5 0x1.54e195b6b006ap+5 0x1.2ece25aaac88fp+5 "
        "0x1.3394841a4a616p+5 0x1.63bc97a9bcd88p+5 0x1.4668338869ba6p+5 "
        "0x1.3752f59d63c9cp+5 0x1.49406a8aeb117p+5 0x1.41f3364beccd9p+5 "
        "0x1.5d312906ac610p+5 0x1.7d18aa0817837p+5 0x1.49bef27336b10p+5 "
        "0x1.6448b9554e52fp+5",
        "0x1.c97cfd2b3e29ep-2",
    ),
    ("alternate", 170.0, 1.0): (
        "0x1.22cb02205c0c2p+5 0x1.59a6e5687f3bfp+5 0x1.06e1f9694f961p+5 "
        "0x1.2953cb7971b25p+5 0x1.35b565e1cc61ap+5 0x1.3007b05155993p+5 "
        "0x1.22457617ade8bp+5 0x1.43b008ab64a9ap+5 0x1.4f3888da9c17fp+5 "
        "0x1.525d96f94a544p+5 0x1.348115826dd6cp+5 0x1.4f3ba28ac0e02p+5 "
        "0x1.466599257dd80p+5 0x1.3567a4d622041p+5 0x1.31c42f884669ap+5 "
        "0x1.30ae271e78466p+5 0x1.4d54b6a311882p+5 0x1.28e31ade86e27p+5 "
        "0x1.2d454823c4b78p+5 0x1.1fcf86a08fb71p+5 0x1.1e25e6cdec1edp+5 "
        "0x1.3e799094045b6p+5 0x1.35d07443fa44ap+5 0x1.2b4d649708734p+5 "
        "0x1.4c75b2cad8773p+5 0x1.35ef6d5497eaep+5 0x1.2853ca738b6e9p+5 "
        "0x1.3fb1ce45ef584p+5 0x1.506977a690531p+5 0x1.4ea316b51c3d2p+5 "
        "0x1.36d1ac79365efp+5 0x1.4edcb025838d4p+5 0x1.039bb71d3fee9p+5 "
        "0x1.3c6d8bf58216fp+5 0x1.4abe5fef37e23p+5 0x1.475552318dbacp+5 "
        "0x1.41332dcdbf071p+5 0x1.4167a91dfa470p+5 0x1.1f9d927255f8ap+5 "
        "0x1.376e683a11a7cp+5 0x1.3cd2ec62b18d1p+5 0x1.3b4c717cd35aap+5 "
        "0x1.256909efbacf7p+5 0x1.346196e366b03p+5 0x1.379809c3df5fdp+5 "
        "0x1.388f8446db36ep+5 0x1.1d01674799247p+5 0x1.351f4bdcda1e7p+5 "
        "0x1.23a9d7a70e56ep+5 0x1.3bddbfd7b4f27p+5 0x1.416b1d461dc7cp+5 "
        "0x1.3eb9cb05d38f7p+5 0x1.01e45ae164ef5p+5 0x1.4367dfee3c479p+5 "
        "0x1.3fb52ed12cd36p+5 0x1.416e4d53770e1p+5 0x1.1fc6021a731adp+5 "
        "0x1.40f4321dd57c8p+5 0x1.31f77175148c9p+5 0x1.338f060b6d575p+5 "
        "0x1.5652c8b21830ep+5 0x1.49bf8a0037a82p+5 0x1.4ed5f3f15daa7p+5 "
        "0x1.4cd561dafab5fp+5",
        "0x1.603a9b8709c78p-3",
    ),
    ("alternate", 170.0, 8.0): (
        "0x1.5fe5119ca643cp+3 0x1.461e7c227dde1p+3 0x1.5abe25ce8df62p+3 "
        "0x1.55af80e47f15dp+3 0x1.588786b9c00eep+3 0x1.57cea43c8a7b5p+3 "
        "0x1.389ac1183e269p+3 0x1.659405cd4f491p+3 0x1.5294003cf2807p+3 "
        "0x1.681b4976139fap+3 0x1.58b83f22c31a8p+3 0x1.51707e0dfa120p+3 "
        "0x1.4bf499774d3dep+3 0x1.4c4bfbc364799p+3 0x1.570ef500bca3ep+3 "
        "0x1.4686d28524ba6p+3 0x1.4553036563d63p+3 0x1.451deae5718d3p+3 "
        "0x1.6b988f0bb5971p+3 0x1.46a1badb871d3p+3 0x1.4db95a39ff1aap+3 "
        "0x1.5d3e67e0c6c73p+3 0x1.64fa17a2f8652p+3 0x1.416615428a1bap+3 "
        "0x1.38861e1d1ee61p+3 0x1.4be31c596cce9p+3 0x1.48c60dc61393ap+3 "
        "0x1.55e53dbeceb96p+3 0x1.4f9d886ac63c6p+3 0x1.4241dca7a84a8p+3 "
        "0x1.54f286405902fp+3 0x1.38a3a873ff995p+3 0x1.6a47adb4136e1p+3 "
        "0x1.4ed6660ffa273p+3 0x1.414c5c2453bbep+3 0x1.45d6ba32c15e5p+3 "
        "0x1.5e9145491ce01p+3 0x1.6ca3c825a2e8bp+3 0x1.6aa53b6121657p+3 "
        "0x1.4ea2eca851c67p+3 0x1.5442092d61dc7p+3 0x1.5f4250d51f0e2p+3 "
        "0x1.4e25806125d9bp+3 0x1.60bef021ec717p+3 0x1.5149ff9fb7669p+3 "
        "0x1.59a028f27d56cp+3 0x1.5ac8b790da627p+3 0x1.5e7fff9f995eap+3 "
        "0x1.5b54c49986d08p+3 0x1.61ae00259f1d6p+3 0x1.62c5b6154997dp+3 "
        "0x1.4d41b8d6c961bp+3 0x1.611b29da6fd8dp+3 0x1.56336647c1774p+3 "
        "0x1.5d513934be044p+3 0x1.5fd3eaeb5db1ep+3 0x1.3ef04271a3ac0p+3 "
        "0x1.4343372645741p+3 0x1.62cb020091154p+3 0x1.6415a88768798p+3 "
        "0x1.5553ab80a293ap+3 0x1.49976bc6f7bcdp+3 0x1.4b09637503764p+3 "
        "0x1.4f42175aafe4ep+3",
        "0x1.47236c608a126p-1",
    ),
    ("saddlepoint", 13.0, 0.0): (
        "0x1.43f2d296ca83ep+1 0x1.805f6249c5060p+1 0x1.79c5dfe663ae1p+1 "
        "0x1.5eaa5ca6c83bep+1 0x1.4a0e8a15195d2p+1 0x1.960262ab5a08bp+1 "
        "0x1.53ffee9af7cafp+1 0x1.8a651a50c598ep+1 0x1.28c1a5b051ee4p+1 "
        "0x1.0c22b8f0e756ap+2 0x1.3f33599260880p+1 0x1.07fa376179e86p+2 "
        "0x1.8e688fcd33bb2p+1 0x1.25e255860dff9p+1 0x1.1583aa1b82d5dp+1 "
        "0x1.f0ee3ac63617cp+1 0x1.8d10c11143f1fp+1 0x1.0edb95670b28cp+2 "
        "0x1.ed4bc6803304ap+1 0x1.77a8ed9e4c8bcp+1 0x1.9aa610159ed58p+1 "
        "0x1.7a736a9754917p+1 0x1.862ce51965522p+1 0x1.a7a598441b549p+1 "
        "0x1.80b64c98b9021p+1 0x1.15a5a12bfe4d3p+1 0x1.e99fb168e968cp+1 "
        "0x1.e2cf11b63909fp+1 0x1.cfed282703cfbp+1 0x1.99827b7167c65p+1 "
        "0x1.24a8395cea754p+1 0x1.61a8c841f9205p+1 0x1.276e46ce591c1p+2 "
        "0x1.0cde02d250327p+2 0x1.749f4c790a140p+1 0x1.11ae1d3d478a2p+2 "
        "0x1.5963d235d67e4p+1 0x1.246366d755895p+1 0x1.efcc8bcdc9eb9p+1 "
        "0x1.1f6af87162cedp+1 0x1.d34355bdf0540p+1 0x1.9146bad432accp+1 "
        "0x1.5371fceef9c19p+2 0x1.c45e2a4d13466p+1 0x1.e1c2ffa44febdp+1 "
        "0x1.738d90067bd22p+1 0x1.813d6d122da41p+1 0x1.a52b60b8f545fp+1 "
        "0x1.053ef1a35a23cp+2 0x1.0946cb1a61f53p+2 0x1.a2d02bf63d1b3p+1 "
        "0x1.5fe8d0b586baep+1 0x1.5debcbf960983p+1 0x1.0ea890f9a8af9p+1 "
        "0x1.4f8e73a12c39dp+2 0x1.8186e37de5715p+1 0x1.b3d146f5419ddp+1 "
        "0x1.103b02e8e3204p+2 0x1.043cc3b61c94ep+1 0x1.2f9a5ecf7689ap+1 "
        "0x1.711635a395b02p+1 0x1.8ccdc7092967cp+1 0x1.648fcc3608554p+1 "
        "0x1.0422f47d95cc6p+2",
        "0x1.c6dc6a1699ddep-2",
    ),
    ("saddlepoint", 13.0, 1.0): (
        "0x1.cedf223672358p+1 0x1.d77c2613add08p+1 0x1.689bf0260d7b6p+1 "
        "0x1.3f781d45880fcp+1 0x1.9836398879399p+1 0x1.52682d92ffacfp+1 "
        "0x1.a936626a93298p+1 0x1.081320338564fp+2 0x1.73ab7222592abp+1 "
        "0x1.c305708c2cbc1p+1 0x1.c8d7351e85b1ep+1 0x1.7c4520a33e789p+1 "
        "0x1.2e949cad88865p+2 0x1.0d960fc1deec0p+1 0x1.14bdf820794fap+1 "
        "0x1.777df7be0f9f8p+1 0x1.5a73ca7133d37p+1 0x1.93aa50ac6ca0dp+0 "
        "0x1.cbabfd5c14543p+1 0x1.8d9a0fa7f95ecp+1 0x1.2faf9d2483a98p+1 "
        "0x1.4ebf56718ffc9p+1 0x1.5c013d4090ad7p+1 0x1.d1af8ff4b3c7ap+1 "
        "0x1.b0a9ffb034e11p+0 0x1.728b2b323ab20p+1 0x1.62611c4eec566p+1 "
        "0x1.a22a013b032b0p+1 0x1.b0c36c5581142p+1 0x1.593d022ae5622p+1 "
        "0x1.4f5055fd6dd2dp+1 0x1.42e91e6572faap+1 0x1.9eb1bb296bf81p+1 "
        "0x1.98191973c74e9p+1 0x1.8133fdc3fb9e0p+1 0x1.c9c0b14910a45p+1 "
        "0x1.c4fc2cec90cd5p+1 0x1.54bb03c74ea2bp+1 0x1.ee8e568719d2fp+1 "
        "0x1.d2155ab30119ep+0 0x1.2102a49e382a3p+1 0x1.8933dbca58a02p+1 "
        "0x1.115e2bd492cbep+1 0x1.8e6ad95a03413p+1 0x1.6a7306ccd9b4fp+1 "
        "0x1.8928c68f49d2dp+1 0x1.232e0db0c2f30p+2 0x1.30cff618dcf9dp+1 "
        "0x1.03e08602c3e68p+2 0x1.124c75b40396fp+1 0x1.a1f1c6bf23a41p+1 "
        "0x1.8452e45db7561p+1 0x1.4b7eea58d9eecp+1 0x1.78886c544a0d8p+1 "
        "0x1.b6664227e6a93p+1 0x1.384923e460424p+1 0x1.f3c0eef117360p+1 "
        "0x1.146a6d8d310eap+2 0x1.a6e89ac928fc1p+1 0x1.a3949f4a49753p+1 "
        "0x1.7b4ab2ac37defp+1 0x1.9d9d71177e9efp+0 0x1.58314338a73b3p+1 "
        "0x1.b4afe90b57336p+1",
        "0x1.d3bf6ff458cd4p-1",
    ),
    ("saddlepoint", 13.0, 8.0): (
        "0x1.cb83977a812fbp-1 0x1.9fcc3bb535b95p-1 0x1.a2f82f6cfb4d0p-1 "
        "0x1.8855547d50e42p-1 0x1.706a6a2cf880ep-1 0x1.980e41e8e3d7ap-1 "
        "0x1.6afe978479113p-1 0x1.9559647b0b3e7p-1 0x1.a7bd44c53e6f0p-1 "
        "0x1.7a755fe7b1da8p-1 0x1.d37626a98f1a0p-1 0x1.c600d19200baep-1 "
        "0x1.b22b9bb566763p-1 0x1.e69e528f7b604p-1 0x1.479862bde19a6p-1 "
        "0x1.dbb39cc3cd3c4p-1 0x1.7d419e558204ep-1 0x1.50a99acc7092bp-1 "
        "0x1.9bd0825d8c857p-1 0x1.9dc1b1790fef6p-1 0x1.80714dbdb2969p-1 "
        "0x1.af631e7d2fae5p-1 0x1.9a2f6b0e575a4p-1 0x1.9d5cbb9218ab8p-1 "
        "0x1.8e0a58e368d14p-1 0x1.a8fcf2498e08fp-1 0x1.82c5fd58d3db9p-1 "
        "0x1.cea4f6801f762p-1 0x1.ba7722bf71f88p-1 0x1.e3ae3fbb6006bp-1 "
        "0x1.890001b37316ap-1 0x1.b19334dbaa6c6p-1 0x1.6172e56a17880p-1 "
        "0x1.8e5be37dde729p-1 0x1.6b39cd0219342p-1 0x1.1bbd5a7a7dc81p-1 "
        "0x1.951dbefe81487p-1 0x1.a9f5efa9c6edep-1 0x1.a89e62059e90ep-1 "
        "0x1.809d4b7077113p-1 0x1.8235b1c66db61p-1 0x1.6d2c5488e35f6p-1 "
        "0x1.040be31af1f98p+0 0x1.7bdfb097cab1bp-1 0x1.8d2302fa6cfefp-1 "
        "0x1.87634e5fe267ap-1 0x1.68be47cd2e72dp-1 0x1.e0ff70f39d56cp-1 "
        "0x1.6089b1811db3ep-1 0x1.6b75f2ae07757p-1 0x1.a83320a15f3f1p-1 "
        "0x1.48f681ca28919p-1 0x1.c0a9ad099adafp-1 0x1.e616ddb886de7p-1 "
        "0x1.9242c577498d2p-1 0x1.f18543d6db3ccp-1 0x1.af848ad093100p-1 "
        "0x1.b6a9ab0f13a1ep-1 0x1.7816771d36baap-1 0x1.995cf15203d34p-1 "
        "0x1.e4bcd7e08d0f1p-1 0x1.7b9ff95bfbd5bp-1 0x1.052dc8a18a6b2p+0 "
        "0x1.ade5776906050p-1",
        "0x1.7ffa2819b1ea8p-1",
    ),
    ("saddlepoint", 40.0, 0.0): (
        "0x1.305da896d9cd2p+3 0x1.4c4734706d1c0p+3 0x1.0ec1195518575p+3 "
        "0x1.6538a7683ba8dp+3 0x1.88bd268846432p+3 0x1.39ca21d56f43fp+3 "
        "0x1.1f1252f15bbe8p+3 0x1.424531b51f197p+3 0x1.7050675604a05p+3 "
        "0x1.493a52357a466p+3 0x1.059bb18ee88f2p+3 0x1.22c8cc8146363p+3 "
        "0x1.36e6796283510p+3 0x1.38fe54307e591p+3 0x1.21f2965542b80p+3 "
        "0x1.4cc6e8be96f52p+3 0x1.0fdcc12725dbdp+3 0x1.2b5da07bb2b8ep+3 "
        "0x1.1a8c0f4d06b70p+3 0x1.3907abc539b5fp+3 0x1.ecb2f00badb9ep+2 "
        "0x1.245a6c7172cd6p+3 0x1.75167ca76a7d2p+3 0x1.7c018cc3109bdp+3 "
        "0x1.651f2c23fba82p+3 0x1.11321a089424cp+3 0x1.46ad8ddca8a0dp+3 "
        "0x1.5f96f7f4967d7p+3 0x1.2f1366e7fd496p+3 0x1.2519627628472p+3 "
        "0x1.aa90e09d6074ep+3 0x1.1a6d49cd0bee2p+3 0x1.47bf1c61c6c04p+3 "
        "0x1.0a649c25204b5p+3 0x1.e8682db8b397dp+2 0x1.68181e6f9e1bap+3 "
        "0x1.7e029f38c9cb6p+3 0x1.45e54931abf8bp+3 0x1.318ec1b2c4be3p+3 "
        "0x1.2d20f3ffcd5dbp+3 0x1.6b72d59a9de46p+3 0x1.f17278fa19edep+2 "
        "0x1.4fd0a477087e0p+3 0x1.704898fec3d0ep+3 0x1.3dbfedacf213ep+3 "
        "0x1.376502c56b6c9p+3 0x1.2d7f51b37a897p+3 0x1.662d44d2cfbe4p+3 "
        "0x1.603e6b852bad2p+3 0x1.5069469050c53p+3 0x1.2d2c5e0a616a7p+3 "
        "0x1.3110e4741ff06p+3 0x1.33a103a4aab9ep+3 0x1.5f0c8095ac7a8p+3 "
        "0x1.1d6cd6d18c780p+3 0x1.622e9056b0639p+3 0x1.8d2392892d832p+3 "
        "0x1.17c690de8288ap+3 0x1.5e3949432abf1p+3 0x1.3442a61cbf465p+3 "
        "0x1.f608170224462p+2 0x1.0da18ef27b48bp+3 0x1.4d8e8cd8a882fp+3 "
        "0x1.20edca9220ea2p+3",
        "0x1.6b1080b32fc4cp-2",
    ),
    ("saddlepoint", 40.0, 1.0): (
        "0x1.20cef5c1bc8f4p+3 0x1.1e390f3deeefdp+3 0x1.4502dcf765a68p+3 "
        "0x1.0c9127e92e31ap+3 0x1.0cc129b06cb56p+3 0x1.00b52a3fe4c8ap+3 "
        "0x1.3db885b0560b9p+3 0x1.33d37e33da1ddp+3 0x1.b9512bdb87781p+2 "
        "0x1.2dd589a603a78p+3 0x1.50d6e2b146d18p+3 0x1.5efcb60f4a294p+3 "
        "0x1.603254e287787p+3 0x1.2d84a0f23f621p+3 0x1.24609d86a613ap+3 "
        "0x1.0ebae1f8d62ffp+3 0x1.27c1160cd6447p+3 0x1.2689524171bdfp+3 "
        "0x1.3902f7ad3ad0cp+3 0x1.0abe1fce54e4fp+3 0x1.3d9769affbfcep+3 "
        "0x1.1f0b5f11ff403p+3 0x1.55da57187a32ep+3 0x1.08d3fa55ab502p+3 "
        "0x1.5e558c4fd9590p+3 0x1.22db4e028dd14p+3 0x1.28df907229eebp+3 "
        "0x1.579db0b0b99cep+3 0x1.2f88c48b15f63p+3 0x1.7ecabcc3ba38bp+3 "
        "0x1.17652bbd90a88p+3 0x1.4b832924e76dbp+3 0x1.603011c3bd506p+3 "
        "0x1.1976da36e94b0p+3 0x1.1338317cea477p+3 0x1.f26d57a947019p+2 "
        "0x1.150b594e4b446p+3 0x1.2cf74ff961934p+3 0x1.316cdf94afe16p+3 "
        "0x1.0b933b09e949ep+3 0x1.288b28ce6846fp+3 0x1.3326bb213479dp+3 "
        "0x1.d57e9f8e28eb8p+2 0x1.46da99fb626bbp+3 0x1.635b179652ae2p+3 "
        "0x1.daa03b8d23263p+2 0x1.45f8f7ba0ab02p+3 0x1.17581e110bd99p+3 "
        "0x1.41e2549b7326cp+3 0x1.0066a93916a5cp+3 0x1.26da12b0e69c2p+3 "
        "0x1.2dee828d1e3d5p+3 0x1.42d082d8cb8d4p+3 0x1.2fb374343abc4p+3 "
        "0x1.eaf4002014038p+2 0x1.efd08af7a990cp+2 0x1.9e46a70df5c3bp+3 "
        "0x1.1ef7582c86065p+3 0x1.15cd0b781ebaep+3 0x1.f001d0fc2341ep+2 "
        "0x1.3ee50f891651fp+3 0x1.226f845c84c10p+3 0x1.0971ff5973d8bp+3 "
        "0x1.10c676726680cp+3",
        "0x1.d09e15e7d766bp-1",
    ),
    ("saddlepoint", 40.0, 8.0): (
        "0x1.37252ac12b34dp+1 0x1.3f44dfae942acp+1 0x1.566f42377bff3p+1 "
        "0x1.61468b64d888ap+1 0x1.441a373cfb379p+1 0x1.44bb01b529a0fp+1 "
        "0x1.69a96bd37e38fp+1 0x1.18b1f848b5859p+1 0x1.11f1b709c9a5ap+1 "
        "0x1.206a8455ca414p+1 0x1.647b5ace5e174p+1 0x1.3eb82f03997b2p+1 "
        "0x1.4239592c8d27cp+1 0x1.6a57d9330e55fp+1 0x1.3c07464674465p+1 "
        "0x1.36beca9ebc096p+1 0x1.452cee4e172b2p+1 0x1.5240cb77b54a4p+1 "
        "0x1.446566b692d47p+1 0x1.5d10334634f6bp+1 0x1.596e2b2f1ef02p+1 "
        "0x1.4572f7b09f49fp+1 0x1.182d50dddfdcep+1 0x1.64f5b1e05d67ap+1 "
        "0x1.2d65d36ae2425p+1 0x1.31ace03327796p+1 0x1.540f33e2acc8fp+1 "
        "0x1.20c19e3ca89f1p+1 0x1.3569821507731p+1 0x1.4630078a0fd16p+1 "
        "0x1.5959f694216d8p+1 0x1.2a9c2953ecb1dp+1 0x1.4d3499cdc9c27p+1 "
        "0x1.221e63af06d44p+1 0x1.4bbdba53b879fp+1 0x1.39d2847abf37bp+1 "
        "0x1.499fa910d22ccp+1 0x1.4e62b797a3b04p+1 0x1.5ba19b146fce5p+1 "
        "0x1.37ee6a40c768dp+1 0x1.45daa1259d09ap+1 0x1.19cda11583cf8p+1 "
        "0x1.4e979669f0874p+1 0x1.5695a4c130300p+1 0x1.4acca6a734560p+1 "
        "0x1.3c6c5656e2f6ep+1 0x1.3c9ace63a6306p+1 0x1.4918dc98b8bbcp+1 "
        "0x1.505d88e8cd960p+1 0x1.1adabd8969619p+1 0x1.3ebb2334ca470p+1 "
        "0x1.43ec34ca0d29ep+1 0x1.4793a41a07d39p+1 0x1.35496d2f5e2ddp+1 "
        "0x1.5286605b1f4f6p+1 0x1.61a83229b3034p+1 0x1.4ded3dbeecba3p+1 "
        "0x1.1ca5da72f677cp+1 0x1.6701aa03ca814p+1 0x1.464ba2140feb7p+1 "
        "0x1.3b5a2d8e4f0b2p+1 0x1.59a235e9afd53p+1 0x1.341d70114f616p+1 "
        "0x1.2c7d870f21d9dp+1",
        "0x1.d9149bf852268p-1",
    ),
    ("saddlepoint", 170.0, 0.0): (
        "0x1.90dd0b239e29cp+5 0x1.591aba6f55c82p+5 0x1.51bea7763004bp+5 "
        "0x1.5c2f35e438f00p+5 0x1.5c06ddee9de46p+5 0x1.3cf7d26fee17fp+5 "
        "0x1.485b00e76d1dep+5 0x1.6a46ef9d0d6a3p+5 0x1.449ab2d4cb007p+5 "
        "0x1.43343cdb6cf84p+5 0x1.4f78430a83bffp+5 0x1.5ac4021785f6bp+5 "
        "0x1.72611e99bbd10p+5 0x1.459f40c4e92d0p+5 0x1.50ec605452d2cp+5 "
        "0x1.5452e84fa5f8dp+5 0x1.68fe32de0ac59p+5 0x1.5bcd45785124ap+5 "
        "0x1.6bb37e82ce579p+5 0x1.52cd3e1dd2ae1p+5 0x1.4df9a5e70930bp+5 "
        "0x1.591916a088bddp+5 0x1.38df02bd7cad4p+5 0x1.8689f5636c99ap+5 "
        "0x1.737fd2968b621p+5 0x1.2f748711134cdp+5 0x1.7e67fb4a24cbap+5 "
        "0x1.3d89b70f798e3p+5 0x1.46949ecd7587cp+5 0x1.76b1dce7f7768p+5 "
        "0x1.5fedd05c27a09p+5 0x1.70b91cff85057p+5 0x1.3e5db20810031p+5 "
        "0x1.34d1b112bb4d2p+5 0x1.67298a7afe68dp+5 0x1.6955e3ed7ed5cp+5 "
        "0x1.5b0f4c6c8cf2ep+5 0x1.48fe0163c4b0ep+5 0x1.60e59adb76cafp+5 "
        "0x1.5accd16145091p+5 0x1.5e81f4a4112fcp+5 0x1.70292c4a5bf9fp+5 "
        "0x1.4fea8f40b7a57p+5 0x1.795a61160c111p+5 0x1.6b1dea93098e1p+5 "
        "0x1.59175fc86f1f5p+5 0x1.60d7ba9287cd5p+5 0x1.5bbfba5ab3cf7p+5 "
        "0x1.526da886cf562p+5 0x1.2232427694143p+5 0x1.6efde9530003ap+5 "
        "0x1.4959bec99f89dp+5 0x1.402eb160a8b1ep+5 0x1.40dca9df7e3d6p+5 "
        "0x1.5532795619e2dp+5 0x1.4563443b47fb4p+5 0x1.50cfa7f9d2630p+5 "
        "0x1.233032837c408p+5 0x1.429e78c0ad507p+5 0x1.67a2f6fc2a4b3p+5 "
        "0x1.4089de1a5a163p+5 0x1.500bd3def681dp+5 0x1.57806f8570b20p+5 "
        "0x1.5d5db6e1c7aa0p+5",
        "0x1.2fe5dcc0404c0p-2",
    ),
    ("saddlepoint", 170.0, 1.0): (
        "0x1.1c0c9345372bap+5 0x1.52770360c31e2p+5 0x1.33cab104561efp+5 "
        "0x1.4c595beffdd07p+5 0x1.1c6aeeb7e521fp+5 0x1.37774426a4102p+5 "
        "0x1.5e1882b2b452ap+5 0x1.43351bf8a17bfp+5 0x1.4a1bb88a2ca8dp+5 "
        "0x1.4ec42dc211116p+5 0x1.1f9f0edba0dc2p+5 0x1.55d287b62528ap+5 "
        "0x1.685b37292a119p+5 0x1.28801ec065204p+5 0x1.2a65ab0b0225ep+5 "
        "0x1.304efab4388c3p+5 0x1.304871d57f413p+5 0x1.2ff12f33c2a8cp+5 "
        "0x1.4d2fe75490dfbp+5 0x1.5a47568432dbep+5 0x1.3bc493041cdb6p+5 "
        "0x1.2f7136f064b15p+5 0x1.4d5347dc5880ap+5 0x1.268d2a235da9bp+5 "
        "0x1.52c80c190316cp+5 0x1.300dd81915b0fp+5 0x1.206d36c6e243cp+5 "
        "0x1.5ff0e08d6be66p+5 0x1.50786df531ac7p+5 0x1.3bb641aae9367p+5 "
        "0x1.35a5d3fb24944p+5 0x1.22c1e69ebd4e7p+5 0x1.325a4f580a10ap+5 "
        "0x1.431b5ec09a42dp+5 0x1.45faa99d1818cp+5 0x1.539281d213c41p+5 "
        "0x1.6328ed1b25a78p+5 0x1.677f40c418564p+5 0x1.59f357143ada7p+5 "
        "0x1.450361d08d759p+5 0x1.3c5f081be3c5bp+5 0x1.35ad8e06a0c0cp+5 "
        "0x1.1f0a4fb519b44p+5 0x1.1da4c970b1fbep+5 0x1.4e103c275f9d7p+5 "
        "0x1.50284946e659cp+5 0x1.39dd623b68134p+5 0x1.45b6b338d0374p+5 "
        "0x1.4e858f45a5e00p+5 0x1.2f1a6936d4312p+5 0x1.49bb3393ccce8p+5 "
        "0x1.3929ea0f4241fp+5 0x1.2a1ac6f7e8aa8p+5 0x1.293c9b7776fc8p+5 "
        "0x1.2426d830f64ccp+5 0x1.2ed0dcb7ace87p+5 0x1.20545637ea66bp+5 "
        "0x1.2a4da4e9d1894p+5 0x1.30e137b362e11p+5 0x1.244527cb6a2afp+5 "
        "0x1.53674c6d7fdaep+5 0x1.159f093610583p+5 0x1.531560abff7e5p+5 "
        "0x1.39e216bf358fbp+5",
        "0x1.e046af6df98b5p-1",
    ),
    ("saddlepoint", 170.0, 8.0): (
        "0x1.51999529e7edbp+3 0x1.44f5e8cfe5e04p+3 0x1.5a503c2a8578bp+3 "
        "0x1.57c3659899318p+3 0x1.57ab84fb99b88p+3 0x1.3ba2fda921078p+3 "
        "0x1.46b72b700c6a6p+3 0x1.63db81b75ca67p+3 0x1.41fce73ce370cp+3 "
        "0x1.5df6be3458b99p+3 0x1.40379b8de9e78p+3 0x1.51cb8e490e498p+3 "
        "0x1.5b140731f3cb4p+3 0x1.547532edc8498p+3 0x1.5e00ac2c6586ap+3 "
        "0x1.51083c1dc2310p+3 0x1.3b2a595f360b1p+3 0x1.60c94ac72a52bp+3 "
        "0x1.54a81e98fa72fp+3 0x1.4aca60493473cp+3 0x1.3d4fed636b600p+3 "
        "0x1.471767e0faf5ap+3 0x1.4639d4b032d16p+3 0x1.5ace28538d328p+3 "
        "0x1.54116db6e6160p+3 0x1.6ab31fa98db4cp+3 0x1.550bd076ad574p+3 "
        "0x1.4eb2a60a028d8p+3 0x1.496ae0ef8c787p+3 0x1.3ec25f46f3e43p+3 "
        "0x1.50c63afaa0bdcp+3 0x1.4e347ddb5ba9bp+3 0x1.3e502ec8d28ffp+3 "
        "0x1.5e44fe6797265p+3 0x1.57346220362dfp+3 0x1.6addfa58f1bfep+3 "
        "0x1.47e7ff80e04abp+3 0x1.4d36d14b6f7bap+3 0x1.5b17ce1c619d2p+3 "
        "0x1.4a57417777fdcp+3 0x1.4b321fe8198f6p+3 0x1.34acc2b5dcdf0p+3 "
        "0x1.5a5a13ecd5a12p+3 0x1.5dc6023d1d1cep+3 0x1.5c271ac5d792bp+3 "
        "0x1.58d22789e4176p+3 0x1.54c0b1d95c4a2p+3 0x1.5b72ad17458d0p+3 "
        "0x1.552bc076d7eaap+3 0x1.528fc36b4c4b1p+3 0x1.529b6d2947d7cp+3 "
        "0x1.534aa54501122p+3 0x1.534887f659816p+3 0x1.4f28653b73349p+3 "
        "0x1.64c10cae43ab7p+3 0x1.63e8eb955348cp+3 0x1.487b5bfbc127ep+3 "
        "0x1.5361d844e5ddap+3 0x1.58b854e487df1p+3 0x1.4de55c35c6003p+3 "
        "0x1.3b33746a20cbep+3 0x1.50ed47839106bp+3 0x1.57da59ec5c524p+3 "
        "0x1.417c15b760e19p+3",
        "0x1.d325aa6ecd9fcp-3",
    ),
    ("gamma-sum", 0.3, 0.0): (
        "0x1.f5e59542489aap-8 0x1.0d1ee87323fefp-7 0x1.f0f9bc3055e58p-7 "
        "0x1.fe1615ccb8a18p-9 0x1.33cd3ef0b455cp-4 0x1.2d5dcfe133647p-3 "
        "0x1.2975d1152ad89p-5 0x1.115ee43c57cecp-2 0x1.54a2da57f7f55p-3 "
        "0x1.c669ead592103p-8 0x1.a87b82c6900bdp-6 0x1.afb1c5db7369bp-7 "
        "0x1.c6aaca0e99d2ep-9 0x1.5f1b45fdf8addp-7 0x1.60f45a9152b7dp-5 "
        "0x1.9ca4238c4ba54p-5 0x1.84e538c54e4dep-8 0x1.220e508c70f4ep-6 "
        "0x1.5f6559e2d7c5fp-4 0x1.be6f5daa10be9p-4 0x1.453edf8452e8fp-7 "
        "0x1.1e200cdd82ce4p-3 0x1.5b906961593ffp-2 0x1.4fea90e8ba651p-3 "
        "0x1.8af5a753d9f9fp-3 0x1.9b3419834d727p-6 0x1.5d67c54e64443p-4 "
        "0x1.4a4f2951f25e8p-4 0x1.626e3348910a0p-5 0x1.347db2bc11501p-3 "
        "0x1.646aaae3683edp-7 0x1.ae822eabe1d92p-8 0x1.a3f847deeb959p-7 "
        "0x1.bf3e8bd5ecce8p-7 0x1.19a433ce6741bp-9 0x1.820f154059142p-7 "
        "0x1.b1cf4e20014ccp-7 0x1.ae1ce7644d8c1p-7 0x1.246bdd6b798e5p-5 "
        "0x1.275979d8f1f60p-7 0x1.e79f2b36e6896p-4 0x1.3f462a65e83d0p-6 "
        "0x1.917b62bc79e1dp-5 0x1.463b0fb00e629p-5 0x1.162babae87d36p-3 "
        "0x1.38d716888dd44p-4 0x1.d2826b4df34bbp-6 0x1.14332215f2d6ep-2 "
        "0x1.e42aeeb7a8f6fp-7 0x1.c461d2a65e7b6p-9 0x1.ca2e96a727285p-4 "
        "0x1.d77a369856e2dp-7 0x1.880157e9ca31dp-6 0x1.90a7a983c5b66p-5 "
        "0x1.f047579e670f9p-7 0x1.849324cb0ce46p-7 0x1.7d86499e7506ep-4 "
        "0x1.7a9e3170efbf1p-6 0x1.8aa7009e4dffep-6 0x1.2b566a95fbf02p-4 "
        "0x1.1ad5a2242c564p-8 0x1.0f9cf6ec7edcep-4 0x1.307542b69bae0p-3 "
        "0x1.1cf081e133fe7p-4",
        "0x1.8596033031372p-2",
    ),
    ("gamma-sum", 0.3, 1.0): (
        "0x1.c4961a26bfe63p-4 0x1.f0e3d500045ecp-6 0x1.40226067b1183p-6 "
        "0x1.9735b14fc98ffp-9 0x1.1b5ffbcba46b0p-8 0x1.0e08820b755cap-4 "
        "0x1.2d12521bbdfc1p-2 0x1.c841a54664bfap-7 0x1.abf5b9b7b9446p-6 "
        "0x1.51320f6b4443ep-5 0x1.824dbdfc4ab7fp-5 0x1.0ca5e72142ce3p-3 "
        "0x1.70227b0212c96p-6 0x1.32c1ff6462f2ap-6 0x1.7dd52a3fa23c4p-4 "
        "0x1.574f05be7e483p-7 0x1.28b047ef080dfp-7 0x1.afee43574ef42p-5 "
        "0x1.2a2039a418d25p-6 0x1.2be93dcc74725p-3 0x1.2fac09d52461cp-4 "
        "0x1.c26e6d27788e0p-7 0x1.a1ade2f02d356p-3 0x1.11286bd85b41dp-6 "
        "0x1.9e9a946adae70p-5 0x1.63904662e9caep-7 0x1.09150a8ba08d0p-3 "
        "0x1.ce866d84e0797p-4 0x1.de9998b36014cp-5 0x1.a2b5612486c03p-8 "
        "0x1.4858c1dfd56c1p-6 0x1.03a2eb04202a8p-6 0x1.53fed63dd7debp-6 "
        "0x1.08720fedf4919p-6 0x1.fa5fb30f7f87ap-5 0x1.8914d6edf8425p-5 "
        "0x1.211e5d0e34f34p-5 0x1.76575a3dae6c0p-5 0x1.5765ebfa0eba4p-7 "
        "0x1.c19deb480a637p-8 0x1.a17c3905efe42p-6 0x1.3d89e7e0f4bb0p-3 "
        "0x1.5a4237643dd2ep-6 0x1.aa78ae0a7dc8dp-5 0x1.3074828e69136p-1 "
        "0x1.12896302870a6p-5 0x1.1309f335a94fbp-6 0x1.745969afb2f66p-6 "
        "0x1.a8d767e7e09e9p-7 0x1.75c3c457da668p-7 0x1.55b431dc12c1bp-7 "
        "0x1.c148a64ca187cp-5 0x1.97b938f9f10a7p-5 0x1.0f4be81e7dc08p-7 "
        "0x1.0c1e1f8b2c691p-5 0x1.49b40a5671e69p-6 0x1.2a7d23a3e64a4p-5 "
        "0x1.2c3cf45621a7ep-5 0x1.cbfed0995387fp-2 0x1.144f43e3dcab4p-6 "
        "0x1.8007f02ef03c6p-7 0x1.40a2f02d962a6p-2 0x1.518035527476fp-2 "
        "0x1.3e40572d8a278p-5",
        "0x1.b057cab35d7f2p-2",
    ),
    ("gamma-sum", 0.3, 8.0): (
        "0x1.f91d75bffb6f1p-6 0x1.363fb6ce1cfe8p-7 0x1.13ea6f4a01b07p-6 "
        "0x1.49639055006a1p-8 0x1.b51a2b9929f82p-6 0x1.88555977aa4d8p-7 "
        "0x1.630a7282a662fp-6 0x1.7c8c922d75834p-7 0x1.b53b945d36240p-6 "
        "0x1.47ac971853c93p-6 0x1.c8ab7e5510f31p-8 0x1.d7a6413c5399bp-8 "
        "0x1.c642e6ce4763ep-5 0x1.f6ac7e2eaeab8p-8 0x1.6d33916a34646p-7 "
        "0x1.4ce483ea17cefp-5 0x1.9c479ae43315bp-6 0x1.1d11312d227bfp-8 "
        "0x1.03fbff20036a0p-7 0x1.468680c961231p-8 0x1.718b79a5fcc6bp-7 "
        "0x1.f843da75c7757p-5 0x1.aa5a4ba2ff1b9p-6 0x1.1f19240cc1686p-8 "
        "0x1.b9e5df74af0fep-8 0x1.5e2333f5da6d3p-5 0x1.aaeab240e472ap-6 "
        "0x1.1b9131c94a4dcp-6 0x1.d58042c959c6ep-7 0x1.544f7e811d475p-7 "
        "0x1.b6a1561fd8e34p-5 0x1.285dd72a36a3fp-5 0x1.784a320c36c9ap-8 "
        "0x1.8b9164646c235p-5 0x1.30f3704692a04p-8 0x1.e494319412e4ep-7 "
        "0x1.ac49773f4ab1dp-6 0x1.bf51f49f2ce11p-8 0x1.bdc985dd1c758p-7 "
        "0x1.c68a8bd8bf89fp-6 0x1.19db53ef07189p-7 0x1.23c2f63662b93p-8 "
        "0x1.065f016ed4bcep-5 0x1.0b53581634856p-7 0x1.56b024b91f14ap-7 "
        "0x1.a6f64be1c0241p-9 0x1.21e4ee4a45bd8p-7 0x1.0782a411bbd8ep-6 "
        "0x1.a76a8e9b62f90p-7 0x1.f9e2deb69d296p-7 0x1.294fd4084fd4cp-4 "
        "0x1.3c8d40c493b5bp-6 0x1.0f3c834a14d4cp-8 0x1.18b0064c76ec6p-7 "
        "0x1.14a66ebe89744p-6 0x1.6efe7510116f1p-8 0x1.fa9c7c1f428f8p-9 "
        "0x1.5f9939cd54b80p-6 0x1.ff3cc1963de53p-8 0x1.fc7744db09f86p-8 "
        "0x1.c77744a60be58p-8 0x1.bdf7da035178bp-6 0x1.f08b319a5a6fbp-7 "
        "0x1.19551d0488bd8p-7",
        "0x1.7c5cac4f69e2ep-2",
    ),
    ("gamma-sum", 0.9, 0.0): (
        "0x1.2f234ae0859bep-2 0x1.50053471b4a69p-2 0x1.7d9a2089c9e61p-1 "
        "0x1.923981211e39ep-4 0x1.7a5e09b007f86p-2 0x1.5ba046c14bae9p-1 "
        "0x1.ae523a6a1318ep-5 0x1.0fcbbb640741fp-5 0x1.438e60de2cb54p-2 "
        "0x1.665041d07421cp-3 0x1.ca204c40b464fp-2 0x1.05964a5c205f8p-5 "
        "0x1.782115b21143dp-4 0x1.4b20e84b0336fp-3 0x1.803a55c7448bcp-2 "
        "0x1.d07d46547e947p-4 0x1.be9921d3bd3b4p-4 0x1.fef078c38a9e1p-4 "
        "0x1.4c0f1d83a748dp-2 0x1.6af6b56ebe3a5p-2 0x1.8506137475212p-6 "
        "0x1.ce83db0815439p-4 0x1.eadd076066e8ap-3 0x1.03aba0a552dc2p-2 "
        "0x1.e45684012baefp-4 0x1.a9a4f14d2b574p-2 0x1.f5cf583a040f7p-3 "
        "0x1.8e2934bfa30a2p-2 0x1.110959a31d037p-1 0x1.50c9551f706ccp-4 "
        "0x1.0a880d92832a3p-3 0x1.40adffd697f83p-1 0x1.db577b47002fbp-3 "
        "0x1.2f74f44074a0fp-3 0x1.a47bf213d17d8p-2 0x1.02718438860c2p-3 "
        "0x1.fc1a6d53e2984p-3 0x1.89d9f37087b5dp-5 0x1.54e99ff4e7a6cp-2 "
        "0x1.08599b2b97527p-1 0x1.3e6f03fd02db0p-3 0x1.bca001342c75bp-3 "
        "0x1.1b6e9832be5d6p-3 0x1.06dba29c010fcp-3 0x1.51c1d1c0f6486p-2 "
        "0x1.c0e7371bf2d73p-4 0x1.77baed31ad538p-1 0x1.6cae82bfac554p-3 "
        "0x1.a17d4a2b7ab21p-3 0x1.55a7ab19b4b53p-3 0x1.3e9a2ee3dfd9ap-3 "
        "0x1.02f8b1773ff7ap-1 0x1.69d54e8f8f962p-4 0x1.ce75b36fa2071p-4 "
        "0x1.11e2d5ef7f2a9p-2 0x1.0abe3e53dba6dp-2 0x1.d0d1a6d0b37ccp-3 "
        "0x1.f2237abbb5b78p-5 0x1.605106ca43501p-5 0x1.6e2f012462eacp-5 "
        "0x1.cba223a4ac84fp-6 0x1.dc13e3c8e5cbap-2 0x1.afb9c4bc7f099p-3 "
        "0x1.02c22954233b6p-2",
        "0x1.4a943774313e9p-1",
    ),
    ("gamma-sum", 0.9, 1.0): (
        "0x1.cd031e72070d3p-3 0x1.40843f638c6c7p-2 0x1.6f1c056e64a4fp-3 "
        "0x1.1b5ee0dbbbfc9p-2 0x1.ee0e6ff0af250p-4 0x1.92e7b31fc8e8fp-3 "
        "0x1.132ae419f73fap-2 0x1.08a8235977a1bp-2 0x1.13ea6b3627d1ap-2 "
        "0x1.2ad64bc19b045p-3 0x1.c357edcd81c0cp-3 0x1.c12b3fbf81481p-2 "
        "0x1.ae83bf2456e07p-5 0x1.fa62f4a9504b2p-4 0x1.3c3fd796cb5a5p-2 "
        "0x1.a0a1822a285bfp-1 0x1.0a3f75db37921p-1 0x1.ad7dbd848e47bp-3 "
        "0x1.456acddb4b353p-2 0x1.1ab9a6477c078p-2 0x1.681a1a16fae42p-3 "
        "0x1.2392280658680p-2 0x1.324001c258f8bp-4 0x1.0369dff26c660p-2 "
        "0x1.549ea6fb46e4ap-3 0x1.2a86fbee3ec0ep-1 0x1.c7371f96b25c8p-5 "
        "0x1.bbd87617a45f7p-4 0x1.085639c29502cp-2 0x1.77d89660e1f94p-4 "
        "0x1.ecc85474aeec7p-5 0x1.793b642b45a12p-5 0x1.16fc28cb133b7p-2 "
        "0x1.c7a47ffc66e83p-2 0x1.630d4972109fdp-4 0x1.5317450edbf87p-3 "
        "0x1.3eb404ce97f56p-2 0x1.7c6c4a3650b43p-3 0x1.ee324b5606bd0p-4 "
        "0x1.485a366cd0b1ap-4 0x1.150de7b0b61e1p-1 0x1.9bb87735399fbp-5 "
        "0x1.e10198e4161aap-2 0x1.fca9b05a7bb4bp-4 0x1.8afba0d101d58p-5 "
        "0x1.187dba0bf2909p-3 0x1.0f03f0d56b260p-1 0x1.a9af1ac94ac7dp-6 "
        "0x1.3d90f968c8a04p-5 0x1.325642a89b9f4p-5 0x1.252b48a981c93p-1 "
        "0x1.0e3d0941ccfdbp-2 0x1.4b40894316b70p-3 0x1.696f6f3cbb7dbp-2 "
        "0x1.ec35867148cd5p-5 0x1.67a7c8b97aa40p-5 0x1.2fb16bbefcecep-2 "
        "0x1.cc5970a2ace14p-3 0x1.b6c278e367756p-2 0x1.317cf86c89b02p-2 "
        "0x1.04a6763310961p-2 0x1.57dd67a0741b7p-1 0x1.0cb3588e0304cp-1 "
        "0x1.cb049acc13a00p-3",
        "0x1.dec6de64b7840p-5",
    ),
    ("gamma-sum", 0.9, 8.0): (
        "0x1.c195de9731aa4p-5 0x1.30c08dcec8be2p-4 0x1.0c9b04aa42969p-5 "
        "0x1.10fc926883650p-5 0x1.80dc07b31cff0p-5 0x1.3fc57874dd8a6p-5 "
        "0x1.e5f18d72df81fp-5 0x1.adbcb6fd7d716p-5 0x1.24fd583583e36p-5 "
        "0x1.9a1e523df9399p-5 0x1.e7d401709fdcdp-5 0x1.194e14890d981p-4 "
        "0x1.b92435eb3a3d0p-5 0x1.cb9ad797bca73p-5 0x1.4e2f8e89e38e5p-4 "
        "0x1.2796bab694f87p-5 0x1.41ac9e406e73bp-4 0x1.190d44d03854fp-5 "
        "0x1.275bcd06ef2bdp-5 0x1.1e3792064e4b1p-4 0x1.3ae910723f86ep-5 "
        "0x1.e76cad9ef13ccp-5 0x1.09b188e149dcdp-4 0x1.5079ae5d2de3dp-4 "
        "0x1.69d0809965e5dp-4 0x1.1e5a1de6bab71p-6 0x1.8c6f5140c6b71p-6 "
        "0x1.776331658f842p-6 0x1.5229b5f3ef4dep-5 0x1.8e41ea51f05e5p-4 "
        "0x1.c96cb4de4ffc8p-5 0x1.2df41f790013cp-5 0x1.92bb3f264ad60p-4 "
        "0x1.344b5c1db4fabp-4 0x1.0b958e3da8192p-5 0x1.fba62e31f9695p-7 "
        "0x1.3f3883aed9c60p-4 0x1.bbd740bce9d4cp-4 0x1.bb08c61db9acap-3 "
        "0x1.b3b2b419bbb83p-4 0x1.2a360da1dbe3ap-4 0x1.1d94d13bdbac0p-5 "
        "0x1.ce3b751208174p-6 0x1.38ee76f15b70bp-6 0x1.67918e758f531p-5 "
        "0x1.c8732292e7d01p-5 0x1.9c800a23ba572p-5 0x1.66ae5c60d3ed7p-4 "
        "0x1.2e0a484687f05p-5 0x1.8a503849a2b09p-5 0x1.20496815cd6b1p-5 "
        "0x1.1cd3815bbb77fp-4 0x1.06cc9a3ee0c8ap-5 0x1.6bdf874a11e49p-4 "
        "0x1.d828c5eb10d5dp-6 0x1.a0498bf91ac2dp-5 0x1.74b044bd74687p-4 "
        "0x1.41d5edd0ac962p-6 0x1.a5a73e2d28e02p-4 0x1.99031800d3eebp-6 "
        "0x1.e27bc3ae8f0afp-5 0x1.d3352a2921da0p-4 0x1.afbda66a09254p-5 "
        "0x1.de53911116ffdp-5",
        "0x1.4f8bad8d9e324p-2",
    ),
    ("normal-approx", 200.0, 0.0): (
        "0x1.a057350a022bbp+5 0x1.b61ea85dfaa91p+5 0x1.8d97b5876dc74p+5 "
        "0x1.73b2d83ee79aep+5 0x1.870d5c3d398e2p+5 0x1.ae6a9c81ade36p+5 "
        "0x1.b15b79387ba0cp+5 0x1.6f0b1db12feeap+5 0x1.a182bedb3476bp+5 "
        "0x1.998ece4f65947p+5 0x1.9ca4c1231c36bp+5 0x1.8a5e4cf6ae15ap+5 "
        "0x1.7a1ee6068e53cp+5 0x1.85f2a5d9b4254p+5 0x1.9c4144ea46c9fp+5 "
        "0x1.ac6030ddf4ff6p+5 0x1.7f5f5a679f89ep+5 0x1.86295b7d2fc48p+5 "
        "0x1.70cc6439043f5p+5 0x1.c18a4f4a7000ap+5 0x1.72d0110903240p+5 "
        "0x1.98946970737dfp+5 0x1.7ec51159daaeep+5 0x1.7c2a3e2a2d490p+5 "
        "0x1.945c902239583p+5 0x1.8574d23f80bd1p+5 0x1.9b58a5fd35ae9p+5 "
        "0x1.9d4bb4b132d7ap+5 0x1.a2ca85a64c815p+5 0x1.97df603ce4747p+5 "
        "0x1.846233325e52fp+5 0x1.97e28162ce525p+5 0x1.a0785730cb299p+5 "
        "0x1.975d63427a8c8p+5 0x1.9a1f8f36c4101p+5 0x1.867871f6b24d1p+5 "
        "0x1.9ffdf3b458cd9p+5 0x1.8cb7e9aa8b5b2p+5 0x1.7dea4263246f6p+5 "
        "0x1.8279fd0d37da5p+5 0x1.81809c5ad511ap+5 0x1.b0f934e30eadfp+5 "
        "0x1.908cbf456a160p+5 0x1.9b7f09657d9d1p+5 0x1.94a56530c52bbp+5 "
        "0x1.9e692d1393499p+5 0x1.cfedbb2d67e1cp+5 0x1.8baf88d4609cdp+5 "
        "0x1.89907b0784a18p+5 0x1.8d037d806f8dfp+5 0x1.a3dca2be308d1p+5 "
        "0x1.959e7b0cfcb59p+5 0x1.9be68040dbd71p+5 0x1.7254e5111c369p+5 "
        "0x1.b5b2758f2d4ffp+5 0x1.89c557c7454f0p+5 0x1.60ac89639609ep+5 "
        "0x1.a73cfdec403e1p+5 0x1.814ea65c10685p+5 0x1.ab31612a52a79p+5 "
        "0x1.8ee73f503e707p+5 0x1.b9e2a612fc834p+5 0x1.98996c1a44bbbp+5 "
        "0x1.6da786e4fb266p+5",
        "0x1.7e182b52aa030p-4",
    ),
    ("normal-approx", 200.0, 1.0): (
        "0x1.5e47ba4e8cd37p+5 0x1.3d0e94d7d843cp+5 0x1.8655902a497a2p+5 "
        "0x1.4cd2e086965b7p+5 0x1.5f2ccc9a3cf42p+5 0x1.7a0390dfeb5c0p+5 "
        "0x1.66769278c6b9dp+5 0x1.7ff8021b884d0p+5 0x1.75138d85aed04p+5 "
        "0x1.5994d426d8991p+5 0x1.6b3b1df54b366p+5 0x1.7679cccef0faep+5 "
        "0x1.4ef6d739ab916p+5 0x1.9d08fb1d0ddbdp+5 0x1.85e504fa333e8p+5 "
        "0x1.78b32d6365bb7p+5 0x1.67d28cc7944eep+5 0x1.7c62e262a777dp+5 "
        "0x1.7d453a35c4fd8p+5 0x1.528f8c3fe2b6ap+5 0x1.77f878b4adb4ap+5 "
        "0x1.6c32119c8064ap+5 0x1.7a8feefde6813p+5 0x1.76f1e204bb028p+5 "
        "0x1.6ab94a5813cb0p+5 0x1.71dbbe29df8bep+5 0x1.5bbeebc534c60p+5 "
        "0x1.8a4ca40480469p+5 0x1.8949529eba1c2p+5 0x1.67e6edaff8333p+5 "
        "0x1.807858e074e0cp+5 0x1.5e7269b129253p+5 0x1.68a8805ab9c8cp+5 "
        "0x1.77a2fd411f677p+5 0x1.8471ff94f6dd8p+5 0x1.74e148a9e76cep+5 "
        "0x1.6d5b565c31e25p+5 0x1.46c1c440225dap+5 0x1.652c0cad0f615p+5 "
        "0x1.71704e4e1dc18p+5 0x1.5b613d70c9b8dp+5 0x1.903cb6e620c70p+5 "
        "0x1.496cde92badb0p+5 0x1.65f42e36dff5cp+5 0x1.88417258ebac3p+5 "
        "0x1.7e0b097c3f2adp+5 0x1.5708269a26814p+5 0x1.9d374dfcee0a5p+5 "
        "0x1.84fde97b35656p+5 0x1.7b3846c0fcb28p+5 0x1.811ea6cbb1185p+5 "
        "0x1.658fe21fe214ep+5 0x1.5a4508393160cp+5 0x1.954631162dba0p+5 "
        "0x1.70ae0b34024abp+5 0x1.778a1d8fb009ap+5 0x1.483787c8c7d78p+5 "
        "0x1.8f64d2791091ap+5 0x1.65a9d1768c95fp+5 0x1.8787e9f70ded4p+5 "
        "0x1.93d3d16d7103cp+5 0x1.9fdeb8486e50bp+5 0x1.622f5e5a4b568p+5 "
        "0x1.41d9ea838d5dep+5",
        "0x1.2d468917dd048p-3",
    ),
    ("normal-approx", 200.0, 8.0): (
        "0x1.883d851218e56p+3 0x1.8a9391a39f9bap+3 0x1.92606aa3da5ecp+3 "
        "0x1.84ad16bc35952p+3 0x1.8341dadde7231p+3 0x1.8967c8662cfb8p+3 "
        "0x1.8163fca178126p+3 0x1.7ec5565eb60aap+3 0x1.971c2c6e4f94bp+3 "
        "0x1.79e862b98148dp+3 0x1.a9283105c8872p+3 0x1.a1748440bfafdp+3 "
        "0x1.8a450f0f2c6c4p+3 0x1.b2da6ce788f1bp+3 0x1.962b304016532p+3 "
        "0x1.8f557385af644p+3 0x1.7f49d08c973aep+3 0x1.86c7e0072a2c0p+3 "
        "0x1.97d1862e784b9p+3 0x1.806a92d3cc9f0p+3 0x1.9bc6e98d9bde8p+3 "
        "0x1.82b118b8465f6p+3 0x1.7eb72de7971dap+3 0x1.871b25f623c4ep+3 "
        "0x1.746563bb9a0cfp+3 0x1.8c759c048fcc0p+3 0x1.9db7f16f977b0p+3 "
        "0x1.aa5093d6f3eefp+3 0x1.9b55c58a21feap+3 0x1.788d98f89716fp+3 "
        "0x1.887e7514ff020p+3 0x1.8c5876c171588p+3 0x1.8ea4c3077997fp+3 "
        "0x1.841570fa3a32ap+3 0x1.94cfaa0b482d5p+3 0x1.8866debe37f18p+3 "
        "0x1.8447ef2c323c2p+3 0x1.89a2e5171a576p+3 0x1.79fcd572f8998p+3 "
        "0x1.87491260df48ap+3 0x1.8f3f769671798p+3 0x1.8644b04f47f30p+3 "
        "0x1.921fcb2547010p+3 0x1.87bc62c89693dp+3 0x1.8675eeb906b7fp+3 "
        "0x1.a384dd4333f64p+3 0x1.8fcd7e30a8610p+3 0x1.9d453e857b34cp+3 "
        "0x1.889d2f9c3e0bdp+3 0x1.9f4fc0e98fbcep+3 0x1.8f3eef6558f03p+3 "
        "0x1.908601bec7583p+3 0x1.96a653f156836p+3 0x1.7ab66e46b4b74p+3 "
        "0x1.95bbe8f07b4b5p+3 0x1.94c45b6d5b54ap+3 0x1.8b578f7c0ad7ap+3 "
        "0x1.91d7f81d5d62ap+3 0x1.89c0e8161082ep+3 0x1.98512051ad7bdp+3 "
        "0x1.9a7d3dc9eae3dp+3 0x1.9866e8b393ba8p+3 0x1.87382d23aa005p+3 "
        "0x1.960874e4be416p+3",
        "0x1.394e8f454f1a5p-1",
    ),
}

# (route, b, z): (3 scalar draws, the uniform drawn after them)
SCALAR = {
    ("devroye", 1.0, 0.0): (
        "0x1.fdebade227c0ap-2 0x1.4dbfb47436432p-1 0x1.b8a689fee53acp-3",
        "0x1.11047a49023e3p-1",
    ),
    ("devroye", 1.0, 1.0): (
        "0x1.de21505384423p-1 0x1.e89ff8a626b5ap-2 0x1.2b4dab16b0b6cp-4",
        "0x1.0ae7edb942f28p-2",
    ),
    ("devroye", 1.0, 8.0): (
        "0x1.5fca54697b67cp-5 0x1.77134532264d8p-5 0x1.b898f93f6d701p-4",
        "0x1.c2f65a086134fp-1",
    ),
    ("devroye", 2.0, 0.0): (
        "0x1.1ef5d9c5f5e01p-2 0x1.b7c2c8a51ee6ap-2 0x1.1fb7d699ad5d6p-1",
        "0x1.34a2190f53a3fp-1",
    ),
    ("devroye", 2.0, 1.0): (
        "0x1.7c5acbf50d4d4p-2 0x1.f20c540667a1cp-1 0x1.0dc103ed7ca66p-2",
        "0x1.61069e12b5698p-4",
    ),
    ("devroye", 2.0, 8.0): (
        "0x1.0871a6b52bb6cp-4 0x1.11b3e14545264p-3 0x1.ac289a301aea5p-4",
        "0x1.7849b1696006fp-1",
    ),
    ("alternate", 1.0, 0.0): (
        "0x1.405f3223cfb80p-1 0x1.b9dbb4085698bp-3 0x1.365e31034f8dep-2",
        "0x1.9aa4ef2ee81a0p-6",
    ),
    ("alternate", 1.0, 1.0): (
        "0x1.00780cbe9bae9p-2 0x1.266148aa1b829p-4 0x1.6f2c7dc6e1770p-2",
        "0x1.fc3ae6967d9a9p-1",
    ),
    ("alternate", 1.0, 8.0): (
        "0x1.94c26a72ad271p-4 0x1.d8db8973b6692p-4 0x1.215525fefc7c2p-4",
        "0x1.e410cb2bafa60p-3",
    ),
    ("alternate", 2.5, 0.0): (
        "0x1.01bd3d2140f3fp-1 0x1.a3fdfc2a56f9bp-3 0x1.032820d84fca2p-2",
        "0x1.deeb6046fe9bcp-1",
    ),
    ("alternate", 2.5, 1.0): (
        "0x1.d698343ded289p-2 0x1.1a0fa9f403737p-1 0x1.99b710b44be78p-3",
        "0x1.c1e7dfe60bb4ap-2",
    ),
    ("alternate", 2.5, 8.0): (
        "0x1.7b6b38aa493c0p-3 0x1.c0961c4c182b8p-4 0x1.9d53782eacb3fp-3",
        "0x1.8bd416bba8a0fp-1",
    ),
    ("alternate", 4.0, 0.0): (
        "0x1.ed405597fa0ccp-1 0x1.11d930937fb52p-1 0x1.4a13978e8e651p+0",
        "0x1.4f3ddb51b7610p-4",
    ),
    ("alternate", 4.0, 1.0): (
        "0x1.06c7b0929f5dcp+0 0x1.4c53907cbd38dp-1 0x1.7b29fcf871a46p-1",
        "0x1.ea5cccdff0cd9p-1",
    ),
    ("alternate", 4.0, 8.0): (
        "0x1.6670455ddb04ap-2 0x1.5e276c6178ccep-3 0x1.41325f73b139dp-3",
        "0x1.0827ee3ef3053p-1",
    ),
    ("alternate", 7.3, 0.0): (
        "0x1.2e2ab9a58f78ep+1 0x1.86c55c4cd094cp+1 0x1.b33b597ab8836p+0",
        "0x1.27f7c56895035p-1",
    ),
    ("alternate", 7.3, 1.0): (
        "0x1.e565fd81196cep+0 0x1.7bd28b80189dap+0 0x1.899fc8748485ep+0",
        "0x1.1aa69fc1cc248p-4",
    ),
    ("alternate", 7.3, 8.0): (
        "0x1.c7aebb3ffe8abp-2 0x1.04b22956049cdp-1 0x1.30e4a12ca8beap-1",
        "0x1.0b7c4e4509868p-1",
    ),
    ("alternate", 12.0, 0.0): (
        "0x1.9d87e49c3410fp+1 0x1.d8691143084bcp+1 0x1.1d15611e200b2p+1",
        "0x1.b9c077fbac550p-4",
    ),
    ("alternate", 12.0, 1.0): (
        "0x1.d0f193b5f09b2p+1 0x1.79fb4e17c254fp+1 0x1.736f83b7a3851p+1",
        "0x1.0d2f529a5363ep-1",
    ),
    ("alternate", 12.0, 8.0): (
        "0x1.19468475f0f2ap-1 0x1.661c3c9a82333p-1 0x1.6356abf5591bcp-1",
        "0x1.dcf86c4d54c57p-1",
    ),
    ("alternate", 13.0, 0.0): (
        "0x1.519d765004903p+2 0x1.a321d8f1f5866p+1 0x1.cc06abe973ffcp+1",
        "0x1.cba60b390abb6p-2",
    ),
    ("alternate", 13.0, 1.0): (
        "0x1.deb95f10c91f0p+1 0x1.89d6c078c3089p+1 0x1.ec07a3e273ddap+0",
        "0x1.b955769ed79c0p-6",
    ),
    ("alternate", 13.0, 8.0): (
        "0x1.fdb1b8692d3f7p-1 0x1.8feb24b87a296p-1 0x1.719c2ac4be886p-1",
        "0x1.745502c848176p-2",
    ),
    ("alternate", 40.0, 0.0): (
        "0x1.2976bbfab5a4fp+3 0x1.510745a2dbdc6p+3 0x1.6097ebd5d4df5p+3",
        "0x1.2d2821b176588p-4",
    ),
    ("alternate", 40.0, 1.0): (
        "0x1.758bc1932b1a7p+3 0x1.3f0a7a8ff75e9p+3 0x1.072780e18dc9fp+3",
        "0x1.d32449ebe094fp-1",
    ),
    ("alternate", 40.0, 8.0): (
        "0x1.50da23b2cc22ep+1 0x1.3b7470180106bp+1 0x1.37e243c74dbf2p+1",
        "0x1.1a5a031f303e0p-6",
    ),
    ("alternate", 170.0, 0.0): (
        "0x1.41327c0486697p+5 0x1.52262dbe0a53dp+5 0x1.39ead371b5dffp+5",
        "0x1.36dbfcf6a411bp-1",
    ),
    ("alternate", 170.0, 1.0): (
        "0x1.4afef52248caep+5 0x1.3afd0ddd7d278p+5 0x1.3bff3e085ed5dp+5",
        "0x1.15c9fb3a98b14p-1",
    ),
    ("alternate", 170.0, 8.0): (
        "0x1.63779e145f30ep+3 0x1.55dca88a0ac92p+3 0x1.406e739deb058p+3",
        "0x1.385e4a7a97008p-1",
    ),
    ("saddlepoint", 13.0, 0.0): (
        "0x1.7f8d9a10dba92p+1 0x1.b818c3a1dc887p+1 0x1.99a43ec81520cp+1",
        "0x1.d0173972dc444p-2",
    ),
    ("saddlepoint", 13.0, 1.0): (
        "0x1.1e1d5dd166a75p+2 0x1.9d6c33fd71c16p+1 0x1.50357be50ac5dp+1",
        "0x1.645a23bfd2bacp-1",
    ),
    ("saddlepoint", 13.0, 8.0): (
        "0x1.f0b7b2e8b35fdp-1 0x1.c4bd17c305978p-1 0x1.47b2911fbaa92p-1",
        "0x1.6d08baa491b00p-1",
    ),
    ("saddlepoint", 40.0, 0.0): (
        "0x1.53555a8c87691p+3 0x1.49b3183bf1e20p+3 0x1.3dcad2fc0452ep+3",
        "0x1.cc175c9551b5ap-2",
    ),
    ("saddlepoint", 40.0, 1.0): (
        "0x1.9eed271887e5ep+2 0x1.dc866bf7c9d08p+2 0x1.39d5b37e882f7p+3",
        "0x1.7c36602ee237cp-3",
    ),
    ("saddlepoint", 40.0, 8.0): (
        "0x1.3b4a9faa15fdbp+1 0x1.384da85935da4p+1 0x1.36ff0ffb1779ap+1",
        "0x1.ab18a6cfcb9d8p-3",
    ),
    ("saddlepoint", 170.0, 0.0): (
        "0x1.96c79a7945878p+5 0x1.3c6b14a5e7cc3p+5 0x1.5c87c02bf53c6p+5",
        "0x1.b41c76650f886p-2",
    ),
    ("saddlepoint", 170.0, 1.0): (
        "0x1.489de73cfc0dbp+5 0x1.5b0aeac50b8f5p+5 0x1.36d1d5b66a3d7p+5",
        "0x1.5c79e453d0926p-2",
    ),
    ("saddlepoint", 170.0, 8.0): (
        "0x1.4686fe03d292bp+3 0x1.55829b347037ep+3 0x1.6e7b362ab36c3p+3",
        "0x1.a4b7def010694p-3",
    ),
    ("gamma-sum", 0.3, 0.0): (
        "0x1.074f20f0ec605p-7 0x1.0bbb0ce12efacp-7 0x1.1c672b6fc5bedp-4",
        "0x1.9549060dbee8cp-2",
    ),
    ("gamma-sum", 0.3, 1.0): (
        "0x1.c4172d17a11edp-4 0x1.c60068fc6edcdp-3 0x1.690b5fe1bcb3fp-4",
        "0x1.234d877f9cdc8p-2",
    ),
    ("gamma-sum", 0.3, 8.0): (
        "0x1.f2c4fd2577f7bp-6 0x1.2bdd8d5abae42p-6 0x1.0464dec8847a8p-4",
        "0x1.ec3485d19e960p-3",
    ),
    ("gamma-sum", 0.9, 0.0): (
        "0x1.2f98bb637c6a3p-2 0x1.5dd5c1b50bb8dp-3 0x1.2c834f71de11cp-3",
        "0x1.7b28607090259p-1",
    ),
    ("gamma-sum", 0.9, 1.0): (
        "0x1.ce229082f9c11p-3 0x1.faa84786b9ee1p-3 0x1.619c72f2e81efp-4",
        "0x1.a702d54ba799dp-1",
    ),
    ("gamma-sum", 0.9, 8.0): (
        "0x1.bc3b846e58f7ap-5 0x1.40a4fac24b797p-4 0x1.6d09931e0afcep-5",
        "0x1.9c927b87a84dfp-1",
    ),
    ("normal-approx", 200.0, 0.0): (
        "0x1.a057350a022bbp+5 0x1.b61ea85dfaa91p+5 0x1.8d97b5876dc74p+5",
        "0x1.2432d0a14ede9p-1",
    ),
    ("normal-approx", 200.0, 1.0): (
        "0x1.5e47ba4e8cd37p+5 0x1.3d0e94d7d843cp+5 0x1.8655902a497a2p+5",
        "0x1.e51d464c9b3c6p-1",
    ),
    ("normal-approx", 200.0, 8.0): (
        "0x1.883d851218e56p+3 0x1.8a9391a39f9bap+3 0x1.92606aa3da5ecp+3",
        "0x1.214cc4ec0b238p-4",
    ),
}

# (route, b, z): counters of the J* batch sampler behind the route
COUNTERS = {
    ("devroye", 1.0, 0.0): {
        "proposals": 64,
        "left_proposals": 21,
        "series_index_sum": 64,
        "series_index_max": 1,
        "accepted": 64,
    },
    ("devroye", 1.0, 1.0): {
        "proposals": 64,
        "left_proposals": 25,
        "series_index_sum": 64,
        "series_index_max": 1,
        "accepted": 64,
    },
    ("devroye", 1.0, 8.0): {
        "proposals": 64,
        "left_proposals": 63,
        "series_index_sum": 64,
        "series_index_max": 1,
        "accepted": 64,
    },
    ("devroye", 2.0, 0.0): {
        "proposals": 128,
        "left_proposals": 47,
        "series_index_sum": 128,
        "series_index_max": 1,
        "accepted": 128,
    },
    ("devroye", 2.0, 1.0): {
        "proposals": 128,
        "left_proposals": 61,
        "series_index_sum": 128,
        "series_index_max": 1,
        "accepted": 128,
    },
    ("devroye", 2.0, 8.0): {
        "proposals": 128,
        "left_proposals": 127,
        "series_index_sum": 128,
        "series_index_max": 1,
        "accepted": 128,
    },
    ("alternate", 1.0, 0.0): {
        "proposals": 64,
        "left_proposals": 24,
        "series_terms_max": 3,
        "accepted": 64,
    },
    ("alternate", 1.0, 1.0): {
        "proposals": 64,
        "left_proposals": 23,
        "series_terms_max": 3,
        "accepted": 64,
    },
    ("alternate", 1.0, 8.0): {
        "proposals": 64,
        "left_proposals": 64,
        "series_terms_max": 1,
        "accepted": 64,
    },
    ("alternate", 2.5, 0.0): {
        "proposals": 74,
        "left_proposals": 46,
        "series_terms_max": 5,
        "accepted": 64,
    },
    ("alternate", 2.5, 1.0): {
        "proposals": 75,
        "left_proposals": 53,
        "series_terms_max": 5,
        "accepted": 64,
    },
    ("alternate", 2.5, 8.0): {
        "proposals": 64,
        "left_proposals": 64,
        "series_terms_max": 1,
        "accepted": 64,
    },
    ("alternate", 4.0, 0.0): {
        "proposals": 102,
        "left_proposals": 52,
        "series_terms_max": 5,
        "accepted": 64,
    },
    ("alternate", 4.0, 1.0): {
        "proposals": 79,
        "left_proposals": 46,
        "series_terms_max": 5,
        "accepted": 64,
    },
    ("alternate", 4.0, 8.0): {
        "proposals": 64,
        "left_proposals": 64,
        "series_terms_max": 1,
        "accepted": 64,
    },
    ("alternate", 7.3, 0.0): {
        "proposals": 171,
        "left_proposals": 84,
        "series_terms_max": 7,
        "accepted": 128,
    },
    ("alternate", 7.3, 1.0): {
        "proposals": 163,
        "left_proposals": 100,
        "series_terms_max": 5,
        "accepted": 128,
    },
    ("alternate", 7.3, 8.0): {
        "proposals": 128,
        "left_proposals": 128,
        "series_terms_max": 1,
        "accepted": 128,
    },
    ("alternate", 12.0, 0.0): {
        "proposals": 288,
        "left_proposals": 158,
        "series_terms_max": 7,
        "accepted": 192,
    },
    ("alternate", 12.0, 1.0): {
        "proposals": 285,
        "left_proposals": 174,
        "series_terms_max": 5,
        "accepted": 192,
    },
    ("alternate", 12.0, 8.0): {
        "proposals": 193,
        "left_proposals": 193,
        "series_terms_max": 2,
        "accepted": 192,
    },
    ("alternate", 13.0, 0.0): {
        "proposals": 332,
        "left_proposals": 196,
        "series_terms_max": 5,
        "accepted": 256,
    },
    ("alternate", 13.0, 1.0): {
        "proposals": 327,
        "left_proposals": 199,
        "series_terms_max": 5,
        "accepted": 256,
    },
    ("alternate", 13.0, 8.0): {
        "proposals": 257,
        "left_proposals": 257,
        "series_terms_max": 2,
        "accepted": 256,
    },
    ("alternate", 40.0, 0.0): {
        "proposals": 929,
        "left_proposals": 503,
        "series_terms_max": 8,
        "accepted": 640,
    },
    ("alternate", 40.0, 1.0): {
        "proposals": 897,
        "left_proposals": 570,
        "series_terms_max": 7,
        "accepted": 640,
    },
    ("alternate", 40.0, 8.0): {
        "proposals": 641,
        "left_proposals": 641,
        "series_terms_max": 2,
        "accepted": 640,
    },
    ("alternate", 170.0, 0.0): {
        "proposals": 4023,
        "left_proposals": 2164,
        "series_terms_max": 7,
        "accepted": 2752,
    },
    ("alternate", 170.0, 1.0): {
        "proposals": 3844,
        "left_proposals": 2347,
        "series_terms_max": 7,
        "accepted": 2752,
    },
    ("alternate", 170.0, 8.0): {
        "proposals": 2757,
        "left_proposals": 2757,
        "series_terms_max": 2,
        "accepted": 2752,
    },
    ("saddlepoint", 13.0, 0.0): {
        "proposals": 79,
        "left_proposals": 57,
        "accepted": 64,
    },
    ("saddlepoint", 13.0, 1.0): {
        "proposals": 73,
        "left_proposals": 53,
        "accepted": 64,
    },
    ("saddlepoint", 13.0, 8.0): {
        "proposals": 68,
        "left_proposals": 52,
        "accepted": 64,
    },
    ("saddlepoint", 40.0, 0.0): {
        "proposals": 76,
        "left_proposals": 60,
        "accepted": 64,
    },
    ("saddlepoint", 40.0, 1.0): {
        "proposals": 68,
        "left_proposals": 55,
        "accepted": 64,
    },
    ("saddlepoint", 40.0, 8.0): {
        "proposals": 65,
        "left_proposals": 57,
        "accepted": 64,
    },
    ("saddlepoint", 170.0, 0.0): {
        "proposals": 77,
        "left_proposals": 72,
        "accepted": 64,
    },
    ("saddlepoint", 170.0, 1.0): {
        "proposals": 76,
        "left_proposals": 67,
        "accepted": 64,
    },
    ("saddlepoint", 170.0, 8.0): {
        "proposals": 65,
        "left_proposals": 64,
        "accepted": 64,
    },
}


def _seed(route, b, z):
    return zlib.crc32(f"{route}/{b!r}/{z!r}".encode())


def _cases(routes=None):
    return [(r, b, z) for r, shapes in ROUTE_SHAPES.items()
            if routes is None or r in routes for b in shapes for z in TILTS]


def _ids(cases):
    return [f"{r}-b{b:g}-z{z:g}" for r, b, z in cases]


def _hex(xs):
    return " ".join(float(v).hex() for v in xs)


def _batch(route, b, z, method):
    rng = RngStream(_seed(route, b, z))
    draws = sample_pg_batch(PgParams(b, z), rng, size=SIZE, method=method)
    return _hex(draws), float(rng.uniform()).hex()


def _scalar(route, b, z, method):
    rng = RngStream(_seed(route, b, z))
    draws = [sample_pg(PgParams(b, z), rng, method=method)
             for _ in range(SCALAR_DRAWS)]
    assert all(isinstance(v, float) for v in draws)
    return _hex(draws), float(rng.uniform()).hex()


CASES = _cases()
# One auto cell per shape and tilt, named after the shape's range in the
# hybrid rule (its route by shape alone); it checks the draws of the
# route auto takes at this size, AUTO_ROUTE[b].
AUTO_CASES = [(choose_method(b).value, b, z) for b in sorted(AUTO_ROUTE)
              for z in TILTS]


def test_grid_matches_tables():
    assert SIZE < SADDLE_MIN_SIZE
    assert set(BATCH) == set(SCALAR) == set(CASES)
    assert set(COUNTERS) == set(
        _cases(("devroye", "alternate", "saddlepoint")))


@pytest.mark.parametrize("route,b,z", CASES, ids=_ids(CASES))
def test_batch_forced(route, b, z):
    assert _batch(route, b, z, route) == BATCH[(route, b, z)]


@pytest.mark.parametrize("shape_route,b,z", AUTO_CASES, ids=_ids(AUTO_CASES))
def test_batch_auto(shape_route, b, z):
    route = AUTO_ROUTE[b]
    assert _batch(route, b, z, "auto") == BATCH[(route, b, z)]


@pytest.mark.parametrize("route,b,z", CASES, ids=_ids(CASES))
def test_scalar_forced(route, b, z):
    assert _scalar(route, b, z, route) == SCALAR[(route, b, z)]


@pytest.mark.parametrize("shape_route,b,z", AUTO_CASES, ids=_ids(AUTO_CASES))
def test_scalar_auto(shape_route, b, z):
    route = AUTO_ROUTE[b]
    assert _scalar(route, b, z, "auto") == SCALAR[(route, b, z)]


COUNTER_CASES = sorted(COUNTERS)


@pytest.mark.parametrize("route,b,z", COUNTER_CASES, ids=_ids(COUNTER_CASES))
def test_sampler_counters(route, b, z):
    # the J* draws behind PG(b, z) are 4 times the PG batch draws
    rng = RngStream(_seed(route, b, z))
    counters = {}
    zj = abs(z) / 2.0
    if route == "devroye":
        draws = devroye.sample_jstar_int_batch(int(b), zj, SIZE, rng,
                                               counters=counters)
    elif route == "alternate":
        draws = alternate.sample_jstar_alt_batch(b, zj, SIZE, rng,
                                                 counters=counters)
    else:
        draws = saddle.sample_saddle_batch(b, zj, SIZE, rng,
                                           counters=counters)
    assert counters == COUNTERS[(route, b, z)]
    assert _hex(np.asarray(draws) / 4.0) == BATCH[(route, b, z)][0]


# One-draw table.  The ladder holds PG tilts: 0, a negative tilt, both
# sides of every switch between the truncated-IG kernel and the Wald
# draw (PG z = 2h/t(h): 1.938 at h = 4, 1.958 at 2.5, 2.062 at 1.5,
# pi at 1), and tilts large enough that a_0 underflows at the proposals.
ONE_DRAW_TILTS = (0.0, 1.0, -1.0, 1.9, 1.95, 2.0, 2.1, 3.1, 3.2, 8.0, 30.0,
                  100.0, 1e3, 4e3, 1e5)
ONE_DRAW_COUNT = 200

# (route, b): (sha256 of the 200 draws' float.hex strings, joined by
# spaces; the uniform drawn after them)
ONE_DRAW = {
    ("devroye", 1.0): (
        "aa4d1b9c0c50d71c14997d6a5a28e8bce35ac900a7e7e319b2cd6e70beae3225",
        "0x1.8fc5d83bef004p-1",
    ),
    ("alternate", 1.0): (
        "5b5674e29969182df35127ab9bd4e2ca254c2319032194ed0c79f1da36ec7825",
        "0x1.e97195aec46ccp-1",
    ),
    ("alternate", 1.5): (
        "41b0ef57328d44e768544704ce8f3575cab81d892bccfaa7165243bc2cb6617f",
        "0x1.75170551571ffp-1",
    ),
    ("alternate", 2.5): (
        "7823de21e63d2bff449de401dc067ae00fc17eea5006665d70d8b9e7996ecee8",
        "0x1.16a14b0e9b4ccp-1",
    ),
    ("alternate", 4.0): (
        "6062cb02fdeaab29869a2226840d0fa00af34f053ba1d9ad66279c2f89093402",
        "0x1.5fec1e3de0da4p-3",
    ),
    ("devroye", 2.0): (
        "4fa776571d02c94b89793508139b004ec1ab6f4f9f57c97c5e06b209b5fcd7fc",
        "0x1.8cb8fb2c9a00ep-1",
    ),
    ("alternate", 7.3): (
        "749486ef015b2f0525641c5043a5b1bc1990cc22995631fb43a1b453637da0c6",
        "0x1.1958ccb25e67ep-1",
    ),
    ("alternate", 40.0): (
        "ef664892f5dc0b1485e61cf999b0b6ecdc26350681da844bd1e47e73757c5caa",
        "0x1.3671bfddd84d0p-5",
    ),
}

# (route, b, z): counters of one size-1 call of the J* sampler
ONE_DRAW_COUNTERS = {
    ("devroye", 1.0, 0.0): {"proposals": 1, "left_proposals": 0,
                            "series_index_sum": 1, "series_index_max": 1,
                            "accepted": 1},
    ("devroye", 1.0, 1.0): {"proposals": 1, "left_proposals": 0,
                            "series_index_sum": 1, "series_index_max": 1,
                            "accepted": 1},
    ("devroye", 1.0, 8.0): {"proposals": 1, "left_proposals": 1,
                            "series_index_sum": 1, "series_index_max": 1,
                            "accepted": 1},
    ("alternate", 1.0, 0.0): {"proposals": 1, "left_proposals": 0,
                              "series_terms_max": 1, "accepted": 1},
    ("alternate", 1.0, 1.0): {"proposals": 1, "left_proposals": 0,
                              "series_terms_max": 1, "accepted": 1},
    ("alternate", 1.0, 8.0): {"proposals": 1, "left_proposals": 1,
                              "series_terms_max": 1, "accepted": 1},
    ("alternate", 1.5, 0.0): {"proposals": 1, "left_proposals": 1,
                              "series_terms_max": 1, "accepted": 1},
    ("alternate", 1.5, 1.0): {"proposals": 1, "left_proposals": 1,
                              "series_terms_max": 1, "accepted": 1},
    ("alternate", 1.5, 8.0): {"proposals": 1, "left_proposals": 1,
                              "series_terms_max": 1, "accepted": 1},
    ("alternate", 2.5, 0.0): {"proposals": 1, "left_proposals": 1,
                              "series_terms_max": 1, "accepted": 1},
    ("alternate", 2.5, 1.0): {"proposals": 1, "left_proposals": 1,
                              "series_terms_max": 1, "accepted": 1},
    ("alternate", 2.5, 8.0): {"proposals": 1, "left_proposals": 1,
                              "series_terms_max": 1, "accepted": 1},
    ("alternate", 4.0, 0.0): {"proposals": 1, "left_proposals": 1,
                              "series_terms_max": 1, "accepted": 1},
    ("alternate", 4.0, 1.0): {"proposals": 1, "left_proposals": 1,
                              "series_terms_max": 1, "accepted": 1},
    ("alternate", 4.0, 8.0): {"proposals": 1, "left_proposals": 1,
                              "series_terms_max": 1, "accepted": 1},
}


def _one_draw_ids(keys):
    return ["-".join(f"{v:g}" if isinstance(v, float) else v for v in key)
            for key in keys]


@pytest.mark.parametrize("route,b", sorted(ONE_DRAW),
                         ids=_one_draw_ids(sorted(ONE_DRAW)))
def test_one_draw(route, b):
    rng = RngStream(zlib.crc32(f"one/{route}/{b!r}".encode()))
    draws = [sample_pg(PgParams(b, ONE_DRAW_TILTS[i % len(ONE_DRAW_TILTS)]),
                       rng, method=route)
             for i in range(ONE_DRAW_COUNT)]
    assert all(isinstance(v, float) for v in draws)
    digest = hashlib.sha256(_hex(draws).encode()).hexdigest()
    assert (digest, float(rng.uniform()).hex()) == ONE_DRAW[(route, b)]


@pytest.mark.parametrize("route,b,z", sorted(ONE_DRAW_COUNTERS),
                         ids=_one_draw_ids(sorted(ONE_DRAW_COUNTERS)))
def test_one_draw_counters(route, b, z):
    rng = RngStream(_seed(route, b, z))
    counters = {}
    if route == "devroye":
        devroye.sample_jstar1_batch(z / 2.0, 1, rng, counters=counters)
    else:
        alternate.sample_jstar_alt_batch(b, z / 2.0, 1, rng,
                                         counters=counters)
    assert counters == ONE_DRAW_COUNTERS[(route, b, z)]


@pytest.mark.parametrize("route,b", sorted(ONE_DRAW),
                         ids=_one_draw_ids(sorted(ONE_DRAW)))
def test_one_candidate_path_matches_batch_of_one(route, b):
    # size=None runs the rejection on floats; over the ladder it must give
    # the draw, counters and stream state of a size-1 array call
    for i, z in enumerate(ONE_DRAW_TILTS):
        results = []
        for size in (None, 1):
            rng, counters = RngStream(i), {}
            if route == "devroye":
                x = devroye.sample_jstar_int_batch(int(b), abs(z) / 2.0, size,
                                                   rng, counters=counters)
            else:
                x = alternate.sample_jstar_alt_batch(b, abs(z) / 2.0, size,
                                                     rng, counters=counters)
            x = float(x if size is None else x[0])
            results.append((x.hex(), counters, rng.uniform()))
        assert results[0] == results[1]
