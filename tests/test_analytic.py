"""Floating-point layer: theta-type series, the limit-formula identity,
log-eta transformation defects, spectrum, and numeric-vs-exact end-to-end.

Tolerances follow the contracts stated in the library docstrings; random
draws are seeded.  Exact oracles come from the rational modules.
"""

from __future__ import annotations

import cmath
import inspect
import math
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import rhocalc._quadrature as quadrature
import rhocalc.analytic as analytic
from conftest import child_env, random_hyperbolic, random_sl2z
from rhocalc import (
    AdmissibilityError,
    ComplexValue,
    ConvergenceError,
    DomainError,
    QuadratureError,
    SL2ZMatrix,
    SeriesParams,
    UnsupportedClassError,
    UpperHalfPoint,
    classical_sum,
    e_series,
    eta_untwisted_numeric,
    eta_untwisted_torus,
    f_series,
    generalized_sum,
    kronecker_closed,
    kronecker_integral,
    log_eta,
    log_eta_gen,
    periodic_bernoulli,
    rho_form_hyp_numeric,
    torus_spectrum,
    transform_defect,
    transform_defect_gen,
)
from rhocalc.analytic import (
    e_series_with_count,
    f_series_direct,
    f_series_poisson,
    kronecker_integral_info,
)
from rhocalc.bernoulli import _mod1, sgn
from rhocalc.cli import ETA_TRANSFORM_TOL, EXIT_NUMERIC, KRONECKER_TOL, run_command

SIGMA_I = UpperHalfPoint(0.0, 1.0)

#: (sigma1, sigma2, u, nu, f_series_direct, f_series_poisson) as computed by
#: the row-by-row lattice loops the 2-D numpy sums replaced: the 12-point
#: grid of the benchmark's f-sum check, then the dual-forms overlap grid
F_SUM_PINS = [
    (0.0, 0.7, 0.6, (F(1, 2), F(1, 4)),
     (-0.4535939092507499-5.07489569618307e-17j), (-0.4535939092507498+2.7628297536696185e-17j)),
    (0.0, 0.7, 1.0, (F(1, 2), F(1, 4)),
     (-0.1768921509918108+1.0993189113204924e-17j), (-0.17689215099181071+8.070758073187399e-17j)),
    (0.0, 0.7, 1.8, (F(1, 2), F(1, 4)),
     (-0.022090927041927732+2.1380361425080667e-18j), (-0.022090927041927718+1.4859917205183472e-17j)),
    (0.0, 1.5, 0.6, (F(1, 2), F(1, 4)),
     (-0.3699886928304858-1.6702013977184677e-18j), (-0.36998869283048574+2.172640924065247e-18j)),
    (0.0, 1.5, 1.0, (F(1, 2), F(1, 4)),
     (-0.07179725199303583+1.6403326760320453e-18j), (-0.0717972519930358+2.5076293433764046e-18j)),
    (0.0, 1.5, 1.8, (F(1, 2), F(1, 4)),
     (-0.0026753534303870607-2.1326900537038328e-26j), (-0.002675353430387057-1.065548284193556e-18j)),
    (0.3, 0.7, 0.6, (F(1, 2), F(1, 4)),
     (-0.585472698132881+0.08095079824958878j), (-0.585472698132881+0.08095079824958895j)),
    (0.3, 0.7, 1.0, (F(1, 2), F(1, 4)),
     (-0.33047277634988376+0.12201424438574301j), (-0.3304727763498838+0.12201424438574317j)),
    (0.3, 0.7, 1.8, (F(1, 2), F(1, 4)),
     (-0.0778916576660926+0.0445419192318793j), (-0.0778916576660926+0.04454191923187933j)),
    (0.3, 1.5, 0.6, (F(1, 2), F(1, 4)),
     (-0.37028843255861077+0.00017511540546884588j), (-0.3702884325586108+0.00017511540546880387j)),
    (0.3, 1.5, 1.0, (F(1, 2), F(1, 4)),
     (-0.07315584569427228+0.0010110717391595347j), (-0.07315584569427228+0.0010110717391595403j)),
    (0.3, 1.5, 1.8, (F(1, 2), F(1, 4)),
     (-0.0031078859101592348+0.00031197642407724863j), (-0.0031078859101592265+0.00031197642407725784j)),
    (0.0, 0.5, 0.5, (F(0), F(0)),
     (-1.6734635969533322+1.6728437674274382e-84j), (-1.6734635969533322+8.686203007660206e-36j)),
    (0.0, 0.5, 0.5, (F(1, 2), F(0)),
     (-2.8312721080944776-3.1240821126876456e-84j), (-2.831272108094477-5.7764394274227704e-30j)),
    (0.0, 0.5, 0.5, (F(1, 3), F(2, 3)),
     (0.982673879597564-0.18539250174370756j), (0.9826738795975642-0.18539250174370736j)),
    (0.0, 0.5, 0.8, (F(0), F(0)),
     (-0.38089343542230547+2.1468670072574382e-44j), (-0.38089343542230564-2.8538499874124905e-55j)),
    (0.0, 0.5, 0.8, (F(1, 2), F(0)),
     (-1.8453953372089098-1.1135381876968245e-43j), (-1.8453953372089102+6.683127358092687e-53j)),
    (0.0, 0.5, 0.8, (F(1, 3), F(2, 3)),
     (0.3764266597804828-0.22711038034618575j), (0.3764266597804829-0.22711038034618564j)),
    (0.0, 0.5, 1.0, (F(0), F(0)),
     (-0.14196208496283366+2.5458174286089028e-51j), (-0.14196208496283352-8.889394179035328e-48j)),
    (0.0, 0.5, 1.0, (F(1, 2), F(0)),
     (-1.4377470806968273+2.7599675164774706e-50j), (-1.4377470806968273+2.7568049570321305e-45j)),
    (0.0, 0.5, 1.0, (F(1, 3), F(2, 3)),
     (0.21356680276781165-0.17344033701389067j), (0.21356680276781156-0.1734403370138905j)),
    (0.0, 0.5, 1.5, (F(0), F(0)),
     (-0.012039090900453242-4.475352691794566e-71j), (-0.012039090900453261-9.055293699605381e-35j)),
    (0.0, 0.5, 1.5, (F(1, 2), F(0)),
     (-0.7755096241500328+5.28527986683404e-68j), (-0.7755096241500326-3.886173185492298e-29j)),
    (0.0, 0.5, 1.5, (F(1, 3), F(2, 3)),
     (0.05386743703265182-0.05962098359371076j), (0.053867437032651774-0.05962098359371058j)),
    (0.0, 0.5, 2.0, (F(0), F(0)),
     (-0.0010209747723910212-1.921688957212248e-88j), (-0.0010209747723909993+2.2554107489270595e-44j)),
    (0.0, 0.5, 2.0, (F(1, 2), F(0)),
     (-0.41849577484395345-2.4715999944816824e-85j), (-0.41849577484395334+3.95084187950278e-42j)),
    (0.0, 0.5, 2.0, (F(1, 3), F(2, 3)),
     (0.013674035853241336-0.0168732183515455j), (0.013674035853241338-0.016873218351545316j)),
    (0.0, 1.0, 0.5, (F(0), F(0)),
     (6.36915511314631e-18-5.444171624847796e-37j), (-1.42625196163227e-17+7.887223665166616e-48j)),
    (0.0, 1.0, 0.5, (F(1, 2), F(0)),
     (-1.3757406326966084-3.523965240875755e-35j), (-1.3757406326966086+9.568264495697675e-46j)),
    (0.0, 1.0, 0.5, (F(1, 3), F(2, 3)),
     (3.2202368998251463e-16-0.277074586962891j), (4.20723158532641e-16-0.27707458696289095j)),
    (0.0, 1.0, 0.8, (F(0), F(0)),
     (-7.834368421430146e-19+1.3718263049104094e-73j), (-5.0818345748195016e-17-2.5084889813330188e-51j)),
    (0.0, 1.0, 0.8, (F(1, 2), F(0)),
     (-0.6839683590618537-4.204208566430803e-71j), (-0.6839683590618535+4.0086641051166976e-49j)),
    (0.0, 1.0, 0.8, (F(1, 3), F(2, 3)),
     (1.2506454592068104e-16-0.27806651300095636j), (2.494635911928148e-16-0.27806651300095625j)),
    (0.0, 1.0, 1.0, (F(0), F(0)),
     (-3.24174126710577e-20-1.921688957212248e-88j), (4.128438549787033e-17-1.156317622894781e-44j)),
    (0.0, 1.0, 1.0, (F(1, 2), F(0)),
     (-0.41836589923833306-2.4715999944816824e-85j), (-0.41836589923833306+2.3867211350159707e-42j)),
    (0.0, 1.0, 1.0, (F(1, 3), F(2, 3)),
     (8.387416815755338e-17-0.20956054337075092j), (1.242789778393215e-16-0.20956054337075103j)),
    (0.0, 1.0, 1.5, (F(0), F(0)),
     (-7.559126257551166e-25+2.8947627325811853e-50j), (2.248496403725033e-18-4.206713603981576e-36j)),
    (0.0, 1.0, 1.5, (F(1, 2), F(0)),
     (-0.12187110718826302+4.999211189333209e-43j), (-0.121871107188263-4.207822530865953e-36j)),
    (0.0, 1.0, 1.5, (F(1, 3), F(2, 3)),
     (1.939196913217264e-17-0.07938370246943924j), (3.693878279452968e-17-0.0793837024694392j)),
    (0.0, 1.0, 2.0, (F(0), F(0)),
     (-2.022282849704584e-33+2.0718296930599897e-67j), (1.5403983893266088e-17+1.355604826743539e-34j)),
    (0.0, 1.0, 2.0, (F(1, 2), F(0)),
     (-0.03549052124070841+1.561409693663778e-52j), (-0.0354905212407084-4.4174370586167484e-18j)),
    (0.0, 1.0, 2.0, (F(1, 3), F(2, 3)),
     (5.814029627004477e-18-0.027142105338156506j), (2.337183385953412e-17-0.02714210533815647j)),
    (0.5, 1.0, 0.5, (F(0), F(0)),
     (0.07995563696261468+5.948740699920175e-44j), (0.07995563696261462+1.5654384529306217e-42j)),
    (0.5, 1.0, 0.5, (F(1, 2), F(0)),
     (-0.6769769780751436-0.7901946318337624j), (-0.6769769780751438-0.7901946318337625j)),
    (0.5, 1.0, 0.5, (F(1, 3), F(2, 3)),
     (-0.02151419770819897+9.960117593458936e-19j), (-0.021514197708198988+2.9268091988060056e-16j)),
    (0.5, 1.0, 0.8, (F(0), F(0)),
     (0.005818379416017134+5.885625663225842e-108j), (0.005818379416017121-6.569078106506813e-53j)),
    (0.5, 1.0, 0.8, (F(1, 2), F(0)),
     (-0.30376227625090424-0.3942843717971093j), (-0.30376227625090424-0.3942843717971093j)),
    (0.5, 1.0, 0.8, (F(1, 3), F(2, 3)),
     (0.027250271250412246+2.8330935979363425e-23j), (0.027250271250412284+1.6091194201274003e-16j)),
    (0.5, 1.0, 1.0, (F(0), F(0)),
     (0.000891099166770629+2.1745948989461365e-135j), (0.0008910991667706424+4.32022732523889e-41j)),
    (0.5, 1.0, 1.0, (F(1, 2), F(0)),
     (-0.1673475737184144-0.22096549990083197j), (-0.16734757371841444-0.22096549990083203j)),
    (0.5, 1.0, 1.0, (F(1, 3), F(2, 3)),
     (0.02307329738564655+1.1672617042373533e-25j), (0.02307329738564651+1.0801501793678115e-16j)),
    (0.5, 1.0, 1.5, (F(0), F(0)),
     (7.070723970693081e-06+0j), (7.070723970699722e-06-4.964013776974423e-47j)),
    (0.5, 1.0, 1.5, (F(1, 2), F(0)),
     (-0.036197559651640135-0.04822412477520666j), (-0.036197559651640114-0.04822412477520665j)),
    (0.5, 1.0, 1.5, (F(1, 3), F(2, 3)),
     (0.006979643949153728+6.998320649304702e-28j), (0.006979643949153679+3.8219466441169334e-17j)),
    (0.5, 1.0, 2.0, (F(0), F(0)),
     (5.2238384060997904e-08+0j), (5.223838405868176e-08+4.30865052372021e-36j)),
    (0.5, 1.0, 2.0, (F(1, 2), F(0)),
     (-0.007750806000027373-0.010333695233930377j), (-0.007750806000027376-0.010333695233930382j)),
    (0.5, 1.0, 2.0, (F(1, 3), F(2, 3)),
     (0.0015202107587375378+4.96824056144213e-37j), (0.0015202107587375469+7.441375126529503e-19j)),
    (0.3333333333333333, 2.0, 0.5, (F(0), F(0)),
     (0.41845164985905825-4.6532624925161296e-05j), (0.41845164985905825-4.6532624925172e-05j)),
    (0.3333333333333333, 2.0, 0.5, (F(1, 2), F(0)),
     (-0.39744704964771715-0.03814821989642264j), (-0.39744704964771715-0.03814821989642259j)),
    (0.3333333333333333, 2.0, 0.5, (F(1, 3), F(2, 3)),
     (-0.22290397483237603-0.017007930155572268j), (-0.22290397483237614-0.017007930155572278j)),
    (0.3333333333333333, 2.0, 0.8, (F(0), F(0)),
     (0.0952240367112062-2.7590217923611053e-07j), (0.09522403671120619-2.7590217923502723e-07j)),
    (0.3333333333333333, 2.0, 0.8, (F(1, 2), F(0)),
     (-0.08467879512074342-0.019242594030178025j), (-0.08467879512074349-0.019242594030178053j)),
    (0.3333333333333333, 2.0, 0.8, (F(1, 3), F(2, 3)),
     (-0.06902971927842316-0.02219367429446994j), (-0.06902971927842314-0.022193674294469907j)),
    (0.3333333333333333, 2.0, 1.0, (F(0), F(0)),
     (0.03549053970614818-6.2565332631510115e-09j), (0.03549053970614817-6.25653325896057e-09j)),
    (0.3333333333333333, 2.0, 1.0, (F(1, 2), F(0)),
     (-0.030421477709458543-0.008493406808555454j), (-0.030421477709458557-0.008493406808555454j)),
    (0.3333333333333333, 2.0, 1.0, (F(1, 3), F(2, 3)),
     (-0.034414896894267244-0.017005957986164725j), (-0.03441489689426725-0.017005957986164735j)),
    (0.3333333333333333, 2.0, 1.5, (F(0), F(0)),
     (0.0030097727265900494-3.321717624850764e-13j), (0.003009772726590052-3.321551120327777e-13j)),
    (0.3333333333333333, 2.0, 1.5, (F(1, 2), F(0)),
     (-0.0023876640932210705-0.000787721350768612j), (-0.0023876640932210544-0.0007877213507686172j)),
    (0.3333333333333333, 2.0, 1.5, (F(1, 3), F(2, 3)),
     (-0.0065389399540899396-0.005690123501065216j), (-0.006538939954089927-0.00569012350106523j)),
    (0.3333333333333333, 2.0, 2.0, (F(0), F(0)),
     (0.0002552436930978491-1.4556625486918326e-17j), (0.00025524369309785276-5.521804741406716e-18j)),
    (0.3333333333333333, 2.0, 2.0, (F(1, 2), F(0)),
     (-0.00018873193574051926-6.423184319042172e-05j), (-0.0001887319357405171-6.423184319042833e-05j)),
    (0.3333333333333333, 2.0, 2.0, (F(1, 3), F(2, 3)),
     (-0.001277465024908383-0.0015086269784173548j), (-0.0012774650249083854-0.0015086269784173685j)),
    (-0.7, 3.0, 0.5, (F(0), F(0)),
     (0.4355281792156536-6.09169113317713e-08j), (0.43552817921565373-6.0916911335861e-08j)),
    (-0.7, 3.0, 0.5, (F(1, 2), F(0)),
     (-0.14445015722353846+0.001720137890460173j), (-0.14445015722353838+0.001720137890460129j)),
    (-0.7, 3.0, 0.5, (F(1, 3), F(2, 3)),
     (-0.21650808105434874-0.003331785357473854j), (-0.21650808105434874-0.0033317853574738464j)),
    (-0.7, 3.0, 0.8, (F(0), F(0)),
     (0.1580215518438769-3.963056410007002e-11j), (0.15802155184387684-3.9630587270334934e-11j)),
    (-0.7, 3.0, 0.8, (F(1, 2), F(0)),
     (-0.012612727597927989+0.0008752090347660785j), (-0.012612727597927987+0.0008752090347660677j)),
    (-0.7, 3.0, 0.8, (F(1, 3), F(2, 3)),
     (-0.07727466465670273-0.005696101080731369j), (-0.07727466465670273-0.005696101080731342j)),
    (-0.7, 3.0, 1.0, (F(0), F(0)),
     (0.08173451652688213-1.608933102466691e-13j), (0.08173451652688214-1.6090464320028389e-13j)),
    (-0.7, 3.0, 1.0, (F(1, 2), F(0)),
     (-0.0025121886972882556+0.00030158356867066147j), (-0.0025121886972882474+0.00030158356867065984j)),
    (-0.7, 3.0, 1.0, (F(1, 3), F(2, 3)),
     (-0.039528761021911815-0.00446564337744272j), (-0.03952876102191181-0.004465643377442716j)),
    (-0.7, 3.0, 1.5, (F(0), F(0)),
     (0.015773588719315956-8.829924047891235e-20j), (0.015773588719315963-1.2311552016002446e-17j)),
    (-0.7, 3.0, 1.5, (F(1, 2), F(0)),
     (-4.5905482066234e-05+1.0959352735712683e-05j), (-4.5905482066240884e-05+1.0959352735718358e-05j)),
    (-0.7, 3.0, 1.5, (F(1, 3), F(2, 3)),
     (-0.007455269085670079-0.0012849324010935654j), (-0.007455269085670064-0.0012849324010935552j)),
    (-0.7, 3.0, 2.0, (F(0), F(0)),
     (0.0030446970255492744-3.4797411397578337e-26j), (0.0030446970255492774-4.609114829386673e-18j)),
    (-0.7, 3.0, 2.0, (F(1, 2), F(0)),
     (-8.677452613611613e-07+2.8392491388268446e-07j), (-8.677452613588104e-07+2.8392491388950657e-07j)),
    (-0.7, 3.0, 2.0, (F(1, 3), F(2, 3)),
     (-0.0014124424270429748-0.000272969544233695j), (-0.0014124424270429757-0.00027296954423369296j)),
]


#: (sigma2, nu1, cotangent e_series, double-sum e_series, _e_series_dsigma,
#: log_eta_gen(nu1, -nu2)) at sigma1 = 0.3 and nu2 = 1/3, as computed by the
#: four separate series loops that one truncation loop replaced
E_SERIES_PINS = [
    (0.05, F(0),
     (0.7793791167063358-0.7289513501610075j), (0.7793791167063361-0.7289513501610078j),
     (14.871837984746247+6.707788897876538j), (-0.25625291115219573+0.8860309828404972j)),
    (0.05, F(1, 12),
     (0.27480101959974484-1.0253106334826054j), (0.27480101959974507-1.0253106334826052j),
     (9.006322579498729+9.770276556880804j), (-0.2889818197721993+1.1103954345173292j)),
    (0.05, F(1, 2),
     (-0.3851449671034273-0.42741492573683565j), (-0.38514496710342794-0.42741492573683465j),
     (-8.082583732720849-2.949647739761612j), (0.3982349364933856+0.3488751093970903j)),
    (0.05, F(11, 12),
     (0.10333114394786107-0.4277798797627776j), (0.10333114394786093-0.4277798797627773j),
     (13.284130724072893+3.1825545574895764j), (-0.11751194412031474+0.5128646807975009j)),
    (0.3, F(0),
     (0.07375884718258705-0.12427261287161187j), (0.07375884718258709-0.12427261287161188j),
     (0.661047169240241+0.6242713737507475j), (0.3184676644719781+0.28135224555110167j)),
    (0.3, F(1, 12),
     (-0.40524421598461297-0.6481483249894723j), (-0.40524421598461297-0.6481483249894717j),
     (0.6376419269168297+0.20520947565068767j), (0.32015941494988925+0.7332331260241954j)),
    (0.3, F(1, 2),
     (-0.18405699617169155-0.37956246379902353j), (-0.18405699617169152-0.3795624637990235j),
     (1.2947803852727244-0.3764288313797443j), (0.26259681251143646+0.30102264745927876j)),
    (0.3, F(11, 12),
     (-0.39472331305051955+0.2532635879394402j), (-0.3947233130505201+0.25326358793944026j),
     (0.7613518670520397+0.5410256746892891j), (0.30963851201579595-0.16817878690471685j)),
    (1.0, F(0),
     (0.0005813017561999679-0.0017729676104633431j), (0.0005813017561999678-0.0017729676104633427j),
     (0.011120549398338942+0.0036789947683436475j), (0.025126066979556+0.15885260028995307j)),
    (1.0, F(1, 12),
     (-0.28838107287787995-0.43003019316584595j), (-0.28838107287787973-0.43003019316584606j),
     (0.1748698552880721-0.17260995135433083j), (0.004765069428801226+0.5151149942005696j)),
    (1.0, F(1, 2),
     (-0.02508568066641974-0.03585643473450031j), (-0.025085680666419828-0.0358564347345003j),
     (0.11548123330953945-0.07773515581829368j), (0.28688506846556916-0.042683381605244534j)),
    (1.0, F(11, 12),
     (-0.3677930324008287+0.3215102179571255j), (-0.3677930324008286+0.32151021795712553j),
     (-0.10218680810401251-0.16782817210436643j), (0.08417702895174996-0.23642541692240168j)),
    (1.8, F(0),
     (3.7865909036537883e-06-1.1653235372079783e-05j), (3.7865909036537875e-06-1.165323537207978e-05j),
     (7.321860554083601e-05+2.3792997095971112e-05j), (-0.3931754383337868+0.15709128591486182j)),
    (1.8, F(1, 12),
     (-0.17924832125228896-0.30900211403533157j), (-0.17924832125228865-0.3090021140353316j),
     (0.13321057835810834-0.10675026464651441j), (-0.33126048495605237+0.39408691507005494j)),
    (1.8, F(1, 2),
     (-0.0020555998218821487-0.002837746038894419j), (-0.002055599821882397-0.0028377460388942385j),
     (0.008933374719244682-0.006451823901694746j), (0.4732944978603511-0.0757020703008504j)),
    (1.8, F(11, 12),
     (-0.24801575985956878+0.23854234977940242j), (-0.24801575985956875+0.2385423497794024j),
     (-0.09645540293784595-0.12644025435166173j), (-0.2624930463487727-0.1534575487446789j)),
]


def fraction_mod1(x):
    """x - floor(x) as a Fraction, then float(): the route by which the
    float layer took a rational before it took integers, kept as the
    oracle of bernoulli._mod1."""
    x = F(x)
    r = x - math.floor(x)
    return r, float(r)


def seeded_rationals(seed: int, count: int):
    """ints, negative values, numerators past 10^400 and denominators past
    2^53, the corners of a correctly rounded division."""
    rng = random.Random(seed)
    out = [0, 1, -1, 10**400, -(10**400) - 3, F(1, 3), F(-1, 3), F(2**53 + 1, 2**54), F(-(10**400), 2**53 + 3)]
    for _ in range(count):
        num = rng.choice((rng.randint(-50, 50), rng.randint(-(2**60), 2**60), rng.randint(-(10**420), 10**420)))
        den = rng.choice((rng.randint(1, 60), rng.randint(2**53, 2**64), rng.randint(1, 10**410)))
        out.append(F(num, den))
    return out


class TestExactInputsAsIntegers:
    def test_mod1_matches_the_fraction_route_bit_for_bit(self):
        for x in seeded_rationals(23, 400):
            p, q = _mod1(x)
            exact, value = fraction_mod1(x)
            assert (p, q) == (exact.numerator, exact.denominator), x
            assert (p / q).hex() == value.hex(), x

    def test_periodic_bernoulli_floats_bit_for_bit(self):
        for x in seeded_rationals(24, 200):
            for n in (1, 2):
                assert analytic._pn_float(n, *_mod1(x)).hex() == float(periodic_bernoulli(n, x)).hex(), (n, x)

    def test_sigma1_move_matches_the_fraction_route(self):
        rng = random.Random(25)
        xs = seeded_rationals(25, 60)
        for _ in range(200):
            nu = (rng.choice(xs), rng.choice(xs))
            sigma = UpperHalfPoint(rng.choice((0.3, -2.6, 7.5, 1e17)), 1.0)
            moved, (p1, q1, p2, q2) = analytic._sigma1_near_zero(sigma, nu)
            k = round(sigma.sigma1)
            assert moved == UpperHalfPoint(sigma.sigma1 - k, 1.0)
            assert (p1, q1) == _mod1(nu[0]) and 0 <= p2 < q2
            assert (p2 / q2).hex() == fraction_mod1(F(nu[1]) - k * F(nu[0]))[1].hex(), nu


class TestSeriesParams:
    def test_defaults(self):
        p = SeriesParams()
        assert p.tail_tolerance == 1e-14
        assert p.max_terms == 10**6
        assert p.quad_tolerance == 1e-9
        assert p.poisson_switch_u == 1.0

    def test_all_positive_enforced(self):
        with pytest.raises(DomainError):
            SeriesParams(tail_tolerance=0.0)
        with pytest.raises(DomainError):
            SeriesParams(max_terms=-1)
        with pytest.raises(DomainError):
            SeriesParams(quad_tolerance=-1e-9)
        with pytest.raises(DomainError):
            SeriesParams(poisson_switch_u=0.0)
        for name in ("tail_tolerance", "quad_tolerance", "poisson_switch_u", "max_terms"):
            for bad in (math.nan, math.inf):
                with pytest.raises(DomainError):
                    SeriesParams(**{name: bad})

    def test_every_entry_point_defaults_to_the_shared_params(self):
        # the default is stated in the signature, not resolved from None in the body
        signatures = {
            name: inspect.signature(value)
            for name, value in vars(analytic).items()
            if name in analytic.__all__ and inspect.isfunction(value)
        }
        defaults = {
            name: sig.parameters["params"].default for name, sig in signatures.items() if "params" in sig.parameters
        }
        # the spectrum, the op-action, the path and the Fourier toolkit sum no series
        assert set(signatures) - set(defaults) == {
            "torus_spectrum",
            "moebius_op_action",
            "invariant_path_sigma",
            "finite_fourier_transform",
            "p1_closed_fourier",
        }
        assert all(d is analytic.DEFAULT_SERIES_PARAMS for d in defaults.values()), defaults

    def test_e_series_has_one_method(self):
        assert "method" not in inspect.signature(e_series).parameters


class TestComplexValue:
    def test_round_trip(self):
        v = ComplexValue(1.5, -2.5)
        assert v.as_complex() == 1.5 - 2.5j
        assert ComplexValue.from_complex(1.5 - 2.5j) == v

    def test_finite_enforced(self):
        with pytest.raises(DomainError):
            ComplexValue(float("nan"), 0.0)
        with pytest.raises(DomainError):
            ComplexValue(0.0, float("inf"))


class TestESeries:
    def test_suppressed_at_large_sigma2(self):
        v = e_series(UpperHalfPoint(0.0, 10.0), (F(0), F(0)))
        assert abs(v.as_complex()) < 1e-12

    def test_methods_agree(self):
        for nu in [(F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(0), F(1, 2)), (F(1, 5), F(0))]:
            for sp in (SIGMA_I, UpperHalfPoint(0.3, 0.7), UpperHalfPoint(-0.4, 1.8)):
                a = e_series(sp, nu).as_complex()
                b = e_series_with_count(sp, nu, method="double-sum")[0].as_complex()
                assert abs(a - b) < 1e-11, (nu, sp)

    def test_nu1_reduction(self):
        a = e_series(SIGMA_I, (F(3, 2), F(1, 2)))
        b = e_series(SIGMA_I, (F(1, 2), F(1, 2)))
        assert a == b
        c = e_series(SIGMA_I, (F(-1, 2), F(1, 2)))
        assert c == b

    def test_term_count_reported(self):
        _, count = e_series_with_count(SIGMA_I, (F(1, 2), F(1, 2)))
        assert count > 0
        # the cotangent count is of S2 terms alone: the single sum over
        # q_z, which would need ~1/nu1 times more, is taken in closed form
        sp, nu = UpperHalfPoint(0.1, 0.6), (F(1, 12), F(1, 4))
        assert e_series_with_count(sp, nu)[1] == 12
        assert e_series_with_count(sp, nu, method="double-sum")[1] == 111

    @pytest.mark.parametrize(
        "series",
        [
            lambda sp, nu, p: e_series(sp, nu, p),
            lambda sp, nu, p: e_series_with_count(sp, nu, p, method="double-sum"),
            lambda sp, nu, p: analytic._e_series_dsigma(sp, nu, p),
            lambda sp, nu, p: log_eta_gen(nu[0], -nu[1], sp, p),
            lambda sp, nu, p: log_eta(sp, p),
        ],
        ids=["cotangent", "double-sum", "dsigma", "log_eta_gen", "log_eta"],
    )
    def test_max_terms_exhaustion_raises(self, series):
        params = SeriesParams(max_terms=3)
        with pytest.raises(ConvergenceError):
            series(UpperHalfPoint(0.0, 0.05), (F(1, 2), F(1, 3)), params)

    @pytest.mark.parametrize(
        "series,slope",
        [
            (lambda sp, nu: e_series_with_count(sp, nu), None),
            (lambda sp, nu: e_series_with_count(sp, nu, method="double-sum"), None),
            (lambda sp, nu: log_eta(sp), F(1, 12)),
            (lambda sp, nu: log_eta_gen(nu[0], -nu[1], sp), periodic_bernoulli(2, F(1, 3))),
        ],
        ids=["cotangent", "double-sum", "log_eta", "log_eta_gen"],
    )
    def test_large_sigma1_keeps_its_fraction(self, series, slope):
        # E_nu(sigma + k) = E_{(nu1, nu2 - k nu1)}(sigma), and so for log
        # eta_{g,h} at nu = (g, -h) but for its term pi i sigma P_2(g), and
        # for log eta but for pi i sigma/12: sigma1 = k + 1/4 is moved to
        # 1/4 in integers before q_sigma is taken, so at k = 10^15 the
        # series is that at 1/4 to the bit, not one off by 1e-2, and only
        # the imaginary part of the linear term moves, by pi k slope
        nu = (F(1, 3), F(-1, 5))
        for k in (10**6, 10**10, 10**12, 10**15):
            far = series(UpperHalfPoint(k + 0.25, 1.0), nu)
            near = series(UpperHalfPoint(0.25, 1.0), (nu[0], nu[1] - k * nu[0]))
            if slope is None:
                assert far == near, k
            else:
                assert far.re == near.re, k
                assert far.im - near.im == pytest.approx(math.pi * k * float(slope), rel=1e-13), k

    def test_pinned_values(self):
        assert len(E_SERIES_PINS) == 16
        for s2, nu1, want_cot, want_dbl, want_ds, want_gen in E_SERIES_PINS:
            sp, nu = UpperHalfPoint(0.3, s2), (nu1, F(1, 3))
            for got, want in (
                (e_series(sp, nu).as_complex(), want_cot),
                (e_series_with_count(sp, nu, method="double-sum")[0].as_complex(), want_dbl),
                (analytic._e_series_dsigma(sp, nu, SeriesParams())[1], want_ds),
                (log_eta_gen(nu[0], -nu[1], sp).as_complex(), want_gen),
            ):
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (s2, nu1)

    @pytest.mark.parametrize("nu1", [F(1, 10**20), F(1, 10**12)])
    @pytest.mark.parametrize("sigma1", [0.1, -0.4])
    def test_small_z_does_not_cancel(self, nu1, sigma1):
        # z = nu1 sigma: -Log(1 - q_z) = -log(-2 pi i z) - pi i z + O(z^2),
        # and 2 pi i nu1 q_z / (1 - q_z) = -1/sigma - pi i nu1 + O(nu1 z);
        # the S2 parts at nu1 and at nu = 0 differ by O(nu1)
        sp, params = UpperHalfPoint(sigma1, 1.0), SeriesParams()
        sc = sp.as_complex()
        z = float(nu1) * sc
        log_part = e_series(sp, (nu1, F(0))).as_complex() - e_series(sp, (F(0), F(0))).as_complex()
        assert abs(log_part - (-cmath.log(-2j * math.pi * z) - 1j * math.pi * z)) < 1e-11
        dsigma = analytic._e_series_dsigma
        d_part = dsigma(sp, (nu1, F(0)), params)[1] - dsigma(sp, (F(0), F(0)), params)[1]
        assert abs(d_part - (-1 / sc - 1j * math.pi * float(nu1))) < 1e-9

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            e_series_with_count(SIGMA_I, (F(1, 2), F(1, 2)), method="magic")


def scalar_q_series(term, q_sigma, q_z, ratio_r, params, what, total=0j):
    """The term-by-term loop that the numpy block summation of
    `analytic._q_series` replaced, kept literally as its oracle; ratio_r
    is q_sigma/q_z."""
    qzn = rn = qsn = 1.0 + 0.0j
    cut = params.tail_tolerance * 0.1
    small = n = 0
    while small < 3:
        n += 1
        if n > params.max_terms:
            raise ConvergenceError(f"{what}: max_terms exceeded before tail bound")
        qzn *= q_z
        rn *= ratio_r
        qsn *= q_sigma
        t = term(n, qzn, rn, qsn)
        total += t
        small = small + 1 if (n >= 8 and abs(t) < cut) else 0
    return total, n


BLOCK_Q_SERIES = analytic._q_series


def q_series_results(monkeypatch, impl, call):
    """The (sum, terms) of every q-series that call() sums, with impl as
    the summation routine."""
    seen = []

    def recording(*args, **kwargs):
        out = impl(*args, **kwargs)
        seen.append(out)
        return out

    monkeypatch.setattr(analytic, "_q_series", recording)
    call()
    return seen


def series_calls(sp, nu):
    """Every q-series user at (sigma, nu): E_nu, its sigma-derivative (a
    nonzero starting total for nu1 != 0), log eta_{nu1,-nu2} and log eta."""
    calls = [
        lambda: e_series_with_count(sp, nu),
        lambda: analytic._e_series_dsigma(sp, nu, SeriesParams()),
        lambda: log_eta(sp),
    ]
    if nu != (0, 0):
        calls.append(lambda: log_eta_gen(nu[0], -nu[1], sp))
    return calls


def q_series_grid(seed: int, sigma2s):
    rng = random.Random(seed)
    for s2 in sigma2s:
        for nu1 in (F(0), F(1, 12), F(11, 12), F(99, 100)):
            sp = UpperHalfPoint(rng.uniform(-0.5, 0.5), s2 * rng.uniform(1.0, 1.5))
            yield sp, (nu1, F(rng.randint(0, 11), 12))


class TestBlockSummation:
    """`_q_series` sums in numpy blocks; the scalar loop is its oracle."""

    def assert_matches_scalar(self, monkeypatch, sp, nu):
        for call in series_calls(sp, nu):
            want = q_series_results(monkeypatch, scalar_q_series, call)
            got = q_series_results(monkeypatch, BLOCK_Q_SERIES, call)
            assert len(got) == len(want) == 1
            (v_got, n_got), (v_want, n_want) = got[0], want[0]
            assert n_got == n_want, (sp, nu)
            assert abs(v_got - v_want) <= 1e-13 * max(1.0, abs(v_want)), (sp, nu)

    def test_matches_scalar_loop(self, monkeypatch):
        # Im sigma from 1e-3 (up to ~4e5 terms at nu1 = 99/100) to 3
        for sp, nu in q_series_grid(15, (1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0)):
            self.assert_matches_scalar(monkeypatch, sp, nu)

    def test_small_run_counts_across_block_edges(self, monkeypatch):
        for cap in (4, 5):
            monkeypatch.setattr(analytic, "_BLOCK_CAP", cap)
            for sp, nu in q_series_grid(16, (0.05, 0.4, 2.0)):
                self.assert_matches_scalar(monkeypatch, sp, nu)

    @pytest.mark.parametrize("cap", [analytic._BLOCK_CAP, 5])
    def test_max_terms_is_the_needed_count(self, monkeypatch, cap):
        monkeypatch.setattr(analytic, "_BLOCK_CAP", cap)
        sp, nu = UpperHalfPoint(0.1, 0.02), (F(1, 12), F(1, 4))
        value, needed = e_series_with_count(sp, nu)
        again, count = e_series_with_count(sp, nu, SeriesParams(max_terms=needed))
        assert count == needed
        assert abs(again.as_complex() - value.as_complex()) <= 1e-13 * abs(value.as_complex())
        with pytest.raises(ConvergenceError):
            e_series_with_count(sp, nu, SeriesParams(max_terms=needed - 1))

    def test_non_convergent_series_runs_out_in_bounded_memory(self):
        import tracemalloc

        log_eta(SIGMA_I)  # loads numpy outside the traced span
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError, match="log_eta"):
                log_eta(UpperHalfPoint(0.3, 2e-7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestFSeries:
    def test_pinned_values(self):
        assert len(F_SUM_PINS) == 12 + 75
        for s1, s2, u, nu, want_direct, want_poisson in F_SUM_PINS:
            sp = UpperHalfPoint(s1, s2)
            for got, want in (
                (f_series_direct(sp, u, nu).as_complex(), want_direct),
                (f_series_poisson(sp, u, nu).as_complex(), want_poisson),
            ):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (s1, s2, u, nu)

    def test_dual_forms_agree_on_overlap(self):
        for s1, s2 in [(0.0, 0.5), (0.0, 1.0), (0.5, 1.0), (1 / 3, 2.0), (-0.7, 3.0)]:
            sp = UpperHalfPoint(s1, s2)
            for u in (0.5, 0.8, 1.0, 1.5, 2.0):
                for nu in [(F(0), F(0)), (F(1, 2), F(0)), (F(1, 3), F(2, 3))]:
                    d = f_series_direct(sp, u, nu).as_complex()
                    p = f_series_poisson(sp, u, nu).as_complex()
                    assert abs(d - p) < 1e-9, (s1, s2, u, nu)

    def test_large_u_tail(self):
        v = f_series(SIGMA_I, 50.0, (F(1, 2), F(0)))
        assert abs(v.as_complex()) < 1e-20

    def test_small_u_vanishes_for_twisted_nu(self):
        # u^{-3} e^{-1/(u sigma2)}: still ~3e-2 at u = 0.1, then collapses
        values = [
            abs(f_series(SIGMA_I, u, (F(1, 2), F(0))).as_complex())
            for u in (1e-1, 5e-2, 2e-2, 1e-3)
        ]
        assert values == sorted(values, reverse=True)
        assert values[1] < 1e-3
        assert values[2] < 1e-10
        assert values[3] < 1e-10

    def test_rejects_nonpositive_u(self):
        with pytest.raises(DomainError):
            f_series(SIGMA_I, 0.0, (F(1, 2), F(0)))

    def test_lattice_beyond_max_terms_raises(self):
        # the whole window is one array, so its size is checked first: at
        # u = 1e6 the Poisson window has ~2e8 cells
        nu = (F(1, 2), F(0))
        with pytest.raises(ConvergenceError):
            f_series_poisson(SIGMA_I, 1e6, nu)
        with pytest.raises(ConvergenceError):
            f_series_direct(SIGMA_I, 1.0, nu, SeriesParams(max_terms=10))
        # ~4e150 rows: the row count is checked before np.arange is asked
        # for them
        tiny = UpperHalfPoint(0.0, 1e-300)
        with pytest.raises(ConvergenceError):
            f_series_direct(tiny, 1.0, nu)
        with pytest.raises(ConvergenceError):
            f_series_poisson(tiny, 1.0, nu)
        # a window half-width that overflows to inf has no integer floor
        with pytest.raises(ConvergenceError):
            f_series_poisson(UpperHalfPoint(0.0, 1e-308), 1e308, nu)


class TestGaussKronrod:
    """The batched adaptive G10-K21 quadrature and the batched F_nu kernels."""

    def test_rule_is_exact_to_degree_31(self):
        nodes, weights = quadrature.gk21_rule()
        kronrod, gauss = weights[:, 0], weights[:, 0] - weights[:, 1]
        assert nodes.size == 21 and list(nodes) == sorted(nodes)
        for k in range(32):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(nodes**k @ kronrod - exact) < 1e-15, k
            if k < 20:  # the embedded 10-point Gauss rule
                assert abs(nodes**k @ gauss - exact) < 1e-15, k
        assert abs(nodes**20 @ gauss - 2.0 / 21) > 1e-9

    def test_polynomials_take_one_round(self):
        # degree <= 19: G10 and K21 agree, so the first round's two halves
        # of 21 nodes each are accepted
        calls = []

        def polynomial(u):
            calls.append(u.size)
            return 3.0 * u**2 - 2.0 * u + 1j * u**19

        value, err, neval = quadrature.gauss_kronrod(polynomial, 0.0, 1.0, 1e-13, 0.0)
        assert calls == [42] and neval == 42
        assert abs(value - 1j / 20.0) < 1e-15
        assert err < 1e-13

    @pytest.mark.parametrize("a", [0.5, 3.0, 40.0])
    def test_decaying_exponential(self, a):
        import numpy as np

        length = 12.0
        value, err, neval = quadrature.gauss_kronrod(lambda u: np.exp(-a * u), 0.0, length, 1e-13, 0.0)
        assert abs(value - (-math.expm1(-a * length) / a)) <= 1e-13
        assert err <= 1e-13 and neval % 21 == 0

    def test_every_panel_over_its_share_is_halved_in_one_round(self):
        import numpy as np

        calls = []

        def wave(u):
            calls.append(u.size)
            return np.cos(30.0 * u)

        value, err, neval = quadrature.gauss_kronrod(wave, 0.0, 10.0, 1e-12, 0.0)
        assert abs(value - math.sin(300.0) / 30.0) <= 1e-12 and err <= 1e-12
        # ~60 oscillations need ~100 panels, found in a few rounds of many
        assert len(calls) <= 8 and neval == sum(calls) > 100 * 21
    def test_panel_limit_raises(self):
        import numpy as np

        # rounding keeps every panel's estimate above 1e-300, so every
        # round halves every panel
        with pytest.raises(QuadratureError, match="more than 200 panels"):
            quadrature.gauss_kronrod(np.exp, 0.0, 1.0, 1e-300, 0.0)

    def test_batched_forms_agree_around_the_switch(self):
        import numpy as np

        params = SeriesParams()
        u = np.linspace(0.5, 2.0, 31)
        for sp in (SIGMA_I, UpperHalfPoint(0.3, 0.7), UpperHalfPoint(-0.45, 1.9)):
            for nu in [(F(1, 2), F(1, 4)), (F(1, 3), F(2, 3)), (F(0), F(0))]:
                (p1, q1), (p2, q2) = map(_mod1, nu)
                nu1f, nu2f = p1 / q1, p2 / q2
                direct = analytic._direct_kernel(sp, 0.5, nu1f, nu2f, params)(u)
                poisson = analytic._poisson_kernel(sp, 2.0, nu1f, nu2f, params)(u)
                assert np.max(np.abs(direct - poisson)) < ETA_TRANSFORM_TOL, (sp, nu)
                # a node summed on a wider window gets its value alone, up to rounding
                for k in (0, 15, 30):
                    alone = f_series_direct(sp, float(u[k]), nu).as_complex()
                    assert abs(direct[k] - alone) <= 1e-13 * max(1.0, abs(alone))
                    alone = f_series_poisson(sp, float(u[k]), nu).as_complex()
                    assert abs(poisson[k] - alone) <= 1e-13 * max(1.0, abs(alone))

    def test_batch_is_chunked_under_max_terms(self):
        import numpy as np

        # 63 nodes of a 64-cell lattice: at max_terms = 1000 they are summed
        # 15 nodes at a time, with the values of one block up to rounding
        u = np.linspace(1.0, 3.0, 63)
        whole = analytic._direct_kernel(SIGMA_I, 1.0, 0.5, 0.25, SeriesParams())(u)
        chunked = analytic._direct_kernel(SIGMA_I, 1.0, 0.5, 0.25, SeriesParams(max_terms=1000))(u)
        assert np.max(np.abs(chunked - whole)) <= 1e-15
        with pytest.raises(ConvergenceError):
            analytic._direct_kernel(SIGMA_I, 1.0, 0.5, 0.25, SeriesParams(max_terms=60))


def two_pass_kronecker(sigma, nu, params=None):
    """(value, neval) of the Kronecker quadrature by scipy's QUADPACK: the
    real and imaginary parts in separate passes on each side of the
    switch, F_nu computed afresh at every integrand call.  The oracle of
    the package's batched Gauss-Kronrod quadrature, which shares no
    quadrature code with it."""
    from scipy.integrate import quad

    params = params or SeriesParams()
    switch = params.poisson_switch_u
    (p1, q1), (p2, q2) = map(_mod1, nu)
    nu1f, nu2f = p1 / q1, p2 / q2
    rate = (math.pi**2 / sigma.sigma2) * analytic._min_lattice_dist2(sigma, nu1f, nu2f)
    scale = abs(f_series(sigma, switch, nu, params).as_complex()) + 1.0
    u_max = switch + max(1.0, math.log(20.0 * math.pi * scale / (rate * params.quad_tolerance)) / rate)

    def integrand(u, take_im):
        value = f_series(sigma, u, nu, params).as_complex()
        return value.imag if take_im else value.real

    total, neval = 0.0 + 0.0j, 0
    for lo, hi in ((0.0, switch), (switch, u_max)):
        for take_im in (False, True):
            piece, _, info = quad(
                integrand,
                lo,
                hi,
                args=(take_im,),
                epsabs=params.quad_tolerance / 8.0,
                epsrel=1e-12,
                limit=200,
                full_output=1,
            )[:3]
            total += (1j * piece) if take_im else piece
            neval += int(info["neval"])
    return ComplexValue.from_complex(total / (2.0 * math.pi)), neval


def kronecker_family(seed: int, count: int):
    """(sigma, nu) near sigma = i with nu in sixths, as the benchmark's
    Kronecker check draws them, then nu1 = 0 and nu = 0 at the last sigma."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        sigma = UpperHalfPoint(rng.uniform(-0.05, 0.05), rng.uniform(0.97, 1.03))
        cases.append((sigma, (F(rng.randint(1, 5), 6), F(rng.randint(0, 5), 6))))
    return cases + [(sigma, (F(0), F(rng.randint(1, 5), 6))), (sigma, (F(0), F(0)))]


class TestKronecker:
    GRID = [
        (UpperHalfPoint(0.0, 1.0), (F(1, 2), F(1, 2))),
        (UpperHalfPoint(0.5, 2.0), (F(1, 3), F(0))),
        (UpperHalfPoint(0.0, 1.0), (F(0), F(0))),
    ]

    @pytest.mark.parametrize("sp,nu", GRID)
    def test_integral_matches_closed(self, sp, nu):
        ii = kronecker_integral(sp, nu).as_complex()
        cc = kronecker_closed(sp, nu).as_complex()
        assert abs(ii - cc) < 1e-6

    @pytest.mark.parametrize("k", [-2, 3, 7])
    def test_sigma1_shift_law(self, k):
        # F_nu(sigma + k) = F_{(nu1, nu2 - k nu1)}(sigma), and so for E_nu
        sigma, nu = UpperHalfPoint(0.3, 0.9), (F(1, 3), F(1, 4))
        moved = UpperHalfPoint(0.3 + k, 0.9)
        nu_k = (nu[0], nu[1] - k * nu[0])
        for fn in (
            lambda s, n: kronecker_integral_info(s, n)[0],
            kronecker_closed,
            lambda s, n: f_series(s, 0.7, n),
            lambda s, n: f_series(s, 1.4, n),
        ):
            assert abs(fn(moved, nu).as_complex() - fn(sigma, nu_k).as_complex()) < 1e-12

    def test_integral_info_diagnostics(self):
        _, info = kronecker_integral_info(SIGMA_I, (F(1, 2), F(1, 2)))
        assert info["neval"] > 0
        assert info["achieved_tolerance"] < 1e-9
        assert info["u_max"] > 1.0

    # The name is kept from when the quadrature shared QUADPACK's nodes and
    # matched this reference bitwise; a different adaptive rule can only
    # agree within the quadrature tolerance.
    @pytest.mark.parametrize("sp,nu", GRID + kronecker_family(14, 4))
    def test_shared_nodes_equal_the_two_pass_reference_bitwise(self, sp, nu):
        params = SeriesParams()
        value, info = kronecker_integral_info(sp, nu, params)
        want, _ = two_pass_kronecker(sp, nu, params)
        assert abs(value.as_complex() - want.as_complex()) <= 2 * params.quad_tolerance
        assert info["achieved_tolerance"] <= params.quad_tolerance
        assert abs(value.as_complex() - kronecker_closed(sp, nu).as_complex()) < KRONECKER_TOL

    @pytest.mark.parametrize("sp,nu", [GRID[0]] + kronecker_family(15, 1)[-2:])
    def test_one_lattice_sum_per_distinct_node(self, sp, nu, monkeypatch):
        batches, rounds = [], []
        for name in ("_direct_kernel", "_poisson_kernel"):

            def counting(*args, build=getattr(analytic, name)):
                kernel = build(*args)

                def evaluate(u):
                    batches.append(u.copy())
                    return kernel(u)

                return evaluate

            monkeypatch.setattr(analytic, name, counting)
        real_quadrature = quadrature.gauss_kronrod

        def recording_quadrature(f, *args):
            def integrand(u):
                rounds.append(u.size)
                return f(u)

            return real_quadrature(integrand, *args)

        monkeypatch.setattr(quadrature, "gauss_kronrod", recording_quadrature)
        _, info = kronecker_integral_info(sp, nu)
        switch = SeriesParams().poisson_switch_u
        assert batches[0].tolist() == [switch]  # the scale probe
        # then one batched lattice sum per refinement round, of whole panels
        assert [b.size for b in batches[1:]] == rounds
        assert all(size % 21 == 0 for size in rounds)
        nodes = [u for b in batches[1:] for u in b.tolist()]
        assert switch not in nodes  # Gauss-Kronrod nodes are interior
        assert len(set(nodes)) == len(nodes) == info["neval"]
        assert info["f_evals"] == info["neval"] + 1

    def test_unreachable_tolerance_is_a_quadrature_error(self, capsys):
        nu = (F(1, 3), F(1, 2))
        with pytest.raises(QuadratureError):
            kronecker_integral_info(SIGMA_I, nu, SeriesParams(quad_tolerance=1e-300))
        argv = ["verify", "kronecker", "--sigma", "0,1", "--nu", "1/3,1/2", "--quad-tol", "1e-300"]
        assert run_command(argv) == EXIT_NUMERIC
        assert capsys.readouterr().out == ""

    def test_closed_untwisted_branch(self):
        # nu = 0: 1/6 - 1/(2 pi sigma2) + derivative term, finite
        v = kronecker_closed(SIGMA_I, (F(0), F(0))).as_complex()
        assert math.isfinite(v.real) and math.isfinite(v.imag)
        # at large sigma2 the derivative term dies and the value approaches
        # 1/6 - 1/(2 pi sigma2)
        big = UpperHalfPoint(0.0, 50.0)
        v = kronecker_closed(big, (F(0), F(0))).as_complex()
        assert abs(v - (1 / 6 - 1 / (2 * math.pi * 50.0))) < 1e-12

    def test_closed_large_sigma2_asymptotics(self):
        v = kronecker_closed(UpperHalfPoint(0.0, 10.0), (F(1, 2), F(0))).as_complex()
        assert abs(v - float(periodic_bernoulli(2, F(1, 2)))) < 1e-10

    def test_dsigma_matches_finite_difference(self):
        h = 1e-5
        for nu in [(F(1, 2), F(1, 2)), (F(1, 3), F(2, 3))]:
            _, d, _ = analytic._e_series_dsigma(SIGMA_I, nu, SeriesParams())
            plus = e_series(UpperHalfPoint(h, 1.0), nu).as_complex()
            minus = e_series(UpperHalfPoint(-h, 1.0), nu).as_complex()
            fd = (plus - minus) / (2 * h)
            assert abs(d - fd) < 1e-7, nu

    def test_nonzero_nu1_that_rounds_q_z_to_one_is_a_domain_error(self):
        # 1e-20 is nonzero exactly, but e^{-2 pi 1e-20} is 1.0 in double
        nu = (F(1, 10**20), F(0))
        with pytest.raises(DomainError):
            kronecker_closed(SIGMA_I, nu)
        with pytest.raises(DomainError):
            e_series(SIGMA_I, nu)

    def test_huge_nu_is_reduced_exactly(self):
        # nu and nu + (k, l) give the same floats, also past float range
        k, l = 10**400, -(10**30)
        nu = (F(2, 7), F(1, 3))
        for u in (0.5, 2.0):
            assert f_series(SIGMA_I, u, (nu[0] + k, nu[1] + l)) == f_series(SIGMA_I, u, nu)
        assert e_series(SIGMA_I, (nu[0] + k, nu[1] + l)) == e_series(SIGMA_I, nu)
        assert kronecker_closed(SIGMA_I, (nu[0] + k, nu[1] + l)) == kronecker_closed(SIGMA_I, nu)


class TestLogEta:
    def test_shift_by_one_adds_pi_over_twelve(self):
        for sp in (SIGMA_I, UpperHalfPoint(0.3, 0.8)):
            a = log_eta(UpperHalfPoint(sp.sigma1 + 1.0, sp.sigma2)).as_complex()
            b = log_eta(sp).as_complex()
            assert abs((a - b).imag - math.pi / 12) < 1e-12
            assert abs((a - b).real) < 1e-12

    def test_large_sigma2_dominated_by_linear_term(self):
        # pi i sigma/12 at sigma = 20i; the series is about e^{-40 pi}
        v = log_eta(UpperHalfPoint(0.0, 20.0)).as_complex()
        assert abs(v - 1j * math.pi * 20j / 12) < 1e-25

    def test_value_at_i_matches_classical_eta(self):
        # eta(i) = Gamma(1/4) / (2 pi^{3/4})
        v = cmath.exp(log_eta(SIGMA_I).as_complex())
        assert abs(v - math.gamma(0.25) / (2 * math.pi**0.75)) < 1e-12


class TestLogEtaGen:
    def test_gen_ded_rel_identity(self):
        # log eta_{nu1,-nu2}(sigma) = pi i sigma P2(nu1) - E_nu(sigma) for
        # nu1 not in Z; at nu1 = 0, E_nu omits the single sum, so the
        # phase pi i P1(nu2) and Log(1 - q_z), q_z = e^{-2 pi i nu2}, remain
        for sp, nu in [
            (SIGMA_I, (F(1, 2), F(1, 4))),
            (SIGMA_I, (F(1, 3), F(2, 3))),
            (UpperHalfPoint(0.2, 1.3), (F(1, 5), F(1, 7))),
            (SIGMA_I, (F(0), F(1, 2))),
            (UpperHalfPoint(-0.3, 0.6), (F(0), F(1, 3))),
        ]:
            lhs = log_eta_gen(nu[0], -nu[1], sp).as_complex()
            e_val = e_series(sp, nu).as_complex()
            sigma = sp.as_complex()
            rhs = 1j * math.pi * sigma * float(periodic_bernoulli(2, nu[0])) - e_val
            if nu[0] == 0:
                q_z = cmath.exp(-2j * math.pi * float(nu[1]))
                rhs += 1j * math.pi * float(periodic_bernoulli(1, nu[1])) + cmath.log(1 - q_z)
            assert abs(lhs - rhs) < 1e-12, (sp, nu)

    def test_g_reduction(self):
        a = log_eta_gen(F(1, 3), F(1, 4), SIGMA_I)
        b = log_eta_gen(F(4, 3), F(1, 4), SIGMA_I)
        assert abs(a.as_complex() - b.as_complex()) < 1e-12

    def test_huge_h_is_reduced_exactly(self):
        sp = UpperHalfPoint(0.1, 1.0)
        for g, h in [(F(1, 3), F(1, 3)), (F(0), F(2, 5))]:
            want = log_eta_gen(g, h, sp)
            for k in (10**20, 10**400):
                assert log_eta_gen(g, h + k, sp) == want
        d = transform_defect_gen(SL2ZMatrix(2, 1, 1, 1), F(1, 3), F(1, 3) + 10**20, sp)
        assert abs(d.as_complex()) < 1e-12

    @pytest.mark.parametrize("h", [F(1, 10**20), F(-1, 10**20), F(1, 10**12), F(10**12 - 1, 10**12)])
    def test_h_near_an_integer_keeps_its_digits(self, h):
        # g = 0: log eta_{0,h} = -pi i P_1(h) + Log(1 - e^{2 pi i h}) + 2 log eta
        # + O(h), and Log(1 - e^{2 pi i h}) = log(-2 pi i h') + O(h'), h' = h
        # mod Z nearest 0
        sp = UpperHalfPoint(0.2, 1.0)
        near = float(h - round(h))
        want = (
            -1j * math.pi * float(periodic_bernoulli(1, h))
            + cmath.log(-2j * math.pi * near)
            + 2 * log_eta(sp).as_complex()
        )
        assert abs(log_eta_gen(F(0), h, sp).as_complex() - want) < 1e-9

    def test_nonzero_g_that_rounds_q_z_to_one_is_a_domain_error(self):
        with pytest.raises(DomainError):
            log_eta_gen(F(1, 10**20), F(0), SIGMA_I)

    def test_lattice_point_rejected(self):
        with pytest.raises(DomainError):
            log_eta_gen(F(0), F(0), SIGMA_I)
        with pytest.raises(DomainError):
            log_eta_gen(F(2), F(-3), SIGMA_I)


class TestTransformDefects:
    def test_modular_s_at_fixed_point(self):
        d = transform_defect(SL2ZMatrix(0, -1, 1, 0), SIGMA_I)
        assert abs(d.as_complex()) < 1e-10

    def test_classical_defect_vanishes_random(self):
        rng = random.Random(60)
        checked = 0
        while checked < 100:
            m = random_sl2z(rng, 20)
            if m.c == 0:
                continue
            sp = UpperHalfPoint(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
            d = transform_defect(m, sp)
            assert abs(d.as_complex()) < 1e-9, (m, sp)
            checked += 1

    def test_generalized_defect_vanishes_pin(self):
        d = transform_defect_gen(SL2ZMatrix(-2, 1, 1, -1), F(1, 5), F(-3, 5), SIGMA_I)
        assert abs(d.as_complex()) < 1e-8

    def test_generalized_defect_vanishes_random(self):
        rng = random.Random(61)
        checked = 0
        while checked < 100:
            m = random_sl2z(rng, 20)
            if m.c == 0:
                continue
            g = F(rng.randint(0, 11), rng.randint(1, 12))
            h = F(rng.randint(-11, 11), rng.randint(1, 12))
            if g.denominator == 1 and h.denominator == 1:
                continue
            sp = UpperHalfPoint(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
            d = transform_defect_gen(m, g, h, sp)
            assert abs(d.as_complex()) < 1e-8, (m, g, h, sp)
            checked += 1

    def test_large_entries_fail_to_converge(self):
        # M^op sigma has Im ~ 5e-17, where the log eta series cannot
        # converge; the op-action once raised DomainError for it
        m = SL2ZMatrix(71595709, 69489656, 88584882, 85979077)
        with pytest.raises(ConvergenceError):
            transform_defect(m, UpperHalfPoint(0.22492719103973569, 0.545894086172836))

    def test_zero_c_rejected(self):
        with pytest.raises(DomainError):
            transform_defect(SL2ZMatrix(1, 3, 0, 1), SIGMA_I)
        with pytest.raises(DomainError):
            transform_defect_gen(SL2ZMatrix(1, 3, 0, 1), F(1, 2), F(0), SIGMA_I)


class TestTorusSpectrum:
    def test_untwisted_bottom(self):
        levels = torus_spectrum(SIGMA_I, (F(0), F(0)), 3)
        assert levels[0][0] == 0.0
        assert levels[0][1] == 2
        assert abs(levels[1][0] - 4 * math.pi**2) < 1e-9
        assert levels[1][1] == 8

    def test_twisted_has_no_zero_mode(self):
        for nu in [(F(1, 2), F(0)), (F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))]:
            levels = torus_spectrum(SIGMA_I, nu, 3)
            assert all(ev > 0 for ev, _ in levels)

    def test_positivity_and_sorting(self):
        rng = random.Random(62)
        for _ in range(10):
            sp = UpperHalfPoint(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
            nu = (F(rng.randint(0, 5), 6), F(rng.randint(0, 5), 6))
            levels = torus_spectrum(sp, nu, 4)
            evs = [ev for ev, _ in levels]
            assert evs == sorted(evs)
            assert all(ev >= 0 for ev in evs)
            assert all(mult >= 2 and mult % 2 == 0 for _, mult in levels)
            zero_present = any(ev == 0.0 for ev, _ in levels)
            assert zero_present == (nu[0].denominator == 1 and nu[1].denominator == 1)

    def test_non_finite_eigenvalues_raise(self):
        # 4 pi^2 / sigma2 overflows at sigma2 = 1e-308
        with pytest.raises(DomainError):
            torus_spectrum(UpperHalfPoint(1e308, 1e-308), (0, 0), 2)

    def test_huge_nu_is_reduced_before_float(self):
        # 10^400/3 overflows a float; mod Z^2 it is 1/3
        huge = torus_spectrum(SIGMA_I, (F(10**400, 3), F(0)), 1)
        assert huge == torus_spectrum(SIGMA_I, (F(1, 3), F(0)), 1)

    @pytest.mark.parametrize("k", [-2, 3, 7])
    def test_sigma1_shift_law(self, k):
        # sigma1 -> sigma1 + k relabels n2 -> n2 - k n1, so the spectrum is
        # that at sigma1 with nu2 - k nu1, its window taken after the move
        nu = (F(1, 3), F(1, 4))
        moved = torus_spectrum(UpperHalfPoint(0.25 + k, 0.9), nu, 3)
        assert moved == torus_spectrum(UpperHalfPoint(0.25, 0.9), (nu[0], nu[1] - k * nu[0]), 3)

    def test_lattice_shift_invariance(self):
        # the shift relabels n, so spectra agree away from the enumeration
        # window boundary; compare the low clusters only
        a = torus_spectrum(SIGMA_I, (F(1, 3), F(1, 5)), 6)
        b = torus_spectrum(SIGMA_I, (F(1, 3) + 1, F(1, 5)), 6)
        for (ev1, m1), (ev2, m2) in list(zip(a, b))[:10]:
            assert abs(ev1 - ev2) < 1e-9 and m1 == m2


def exact_rho_form(m: SL2ZMatrix, nu) -> F:
    return F(m.a + m.d, m.c) * periodic_bernoulli(2, F(nu[0])) - 2 * sgn(
        m.c
    ) * generalized_sum(F(nu[0]), F(nu[1]), m.a, m.c)


class TestEndToEndNumerics:
    def test_rho_form_pins(self):
        for m, nu in [
            (SL2ZMatrix(3, 2, 4, 3), (F(1, 2), F(1, 2))),
            (SL2ZMatrix(-2, 1, 1, -1), (F(1, 5), F(3, 5))),
        ]:
            got = rho_form_hyp_numeric(m, nu)
            assert abs(got - float(exact_rho_form(m, nu))) < 1e-6

    def test_float_route_pins_reference_table(self):
        # Criterion 1's table by a route sharing no code with the six-term
        # form or the Dedekind sums: for nu not in Z^2 the fibre family is
        # acyclic, so the twisted eta is twice the eta-form integral with no
        # integer term, and rho = 2 * form - untwisted eta.  This fixes the
        # integer parts that the amphichirality law leaves open.
        m1, m2 = SL2ZMatrix(-2, 1, 1, -1), SL2ZMatrix(3, 2, 4, 3)
        for m, nu, want in [
            (m1, (F(1, 5), F(3, 5)), F(-2, 5)),
            (m1, (F(2, 5), F(1, 5)), F(2, 5)),
            (m1, (F(3, 5), F(4, 5)), F(2, 5)),
            (m1, (F(4, 5), F(2, 5)), F(-2, 5)),
            (m2, (F(0), F(1, 2)), F(0)),
            (m2, (F(1, 2), F(0)), F(-1)),
            (m2, (F(1, 2), F(1, 2)), F(1)),
        ]:
            got = 2 * rho_form_hyp_numeric(m, nu) - eta_untwisted_numeric(m)
            assert abs(got - float(want)) < 1e-9, (m, nu, got)

    def test_rho_form_rejects_untwisted(self):
        with pytest.raises(AdmissibilityError):
            rho_form_hyp_numeric(SL2ZMatrix(2, 1, 1, 1), (F(0), F(0)))

    def test_rho_form_rejects_non_hyperbolic(self):
        with pytest.raises(UnsupportedClassError):
            rho_form_hyp_numeric(SL2ZMatrix(1, 3, 0, 1), (F(1, 3), F(1, 2)))

    def test_eta_numeric_pins(self):
        for m in (SL2ZMatrix(3, 2, 4, 3), SL2ZMatrix(-2, 1, 1, -1), SL2ZMatrix(2, 1, 1, 1)):
            got = eta_untwisted_numeric(m)
            want = float(eta_untwisted_torus(m))
            assert abs(got - want) < 1e-6

    def test_eta_numeric_nonzero_case(self):
        m = SL2ZMatrix(3, 1, 2, 1)
        want = F(4, 6) - 4 * classical_sum(3, 2) - 1
        assert eta_untwisted_torus(m) == want
        assert want != 0
        assert abs(eta_untwisted_numeric(m) - float(want)) < 1e-6

    def test_eta_numeric_matches_exact_on_seeded_set(self):
        # the closed arc integral, on paths of both orientations
        rng = random.Random(5)
        orientations = set()
        for _ in range(300):
            m = random_hyperbolic(rng, 12)
            _, alpha, beta = analytic._kappa_alpha_beta(m)
            orientations.add(alpha > beta)
            assert abs(eta_untwisted_numeric(m) - float(eta_untwisted_torus(m))) < 1e-12, m
        assert orientations == {False, True}

    def test_eta_numeric_loads_no_quadrature(self):
        script = (
            "import sys\n"
            "from rhocalc import SL2ZMatrix, eta_untwisted_numeric\n"
            "eta_untwisted_numeric(SL2ZMatrix(4, 1, 3, 1))\n"
            "print('rhocalc._quadrature' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_random_end_to_end(self):
        rng = random.Random(63)
        from rhocalc import enumerate_torus_connections

        for _ in range(10):
            m = random_hyperbolic(rng, 12)
            assert abs(eta_untwisted_numeric(m) - float(eta_untwisted_torus(m))) < 1e-6
            for conn in enumerate_torus_connections(m).isolated:
                if conn.nu == (F(0), F(0)):
                    continue
                got = rho_form_hyp_numeric(m, conn.nu)
                assert abs(got - float(exact_rho_form(m, conn.nu))) < 1e-6
