import laddersand


def test_public_api_importable():
    for name in laddersand.__all__:
        assert getattr(laddersand, name, None) is not None, name


def test_version():
    assert laddersand.__version__ == "0.1.0"


def test_top_level_workflow(path2):
    # the headline quantities, through the package namespace only
    auto = laddersand.build_coding(path2)
    assert len(auto) == 7
    counts = laddersand.count_series(path2, "L", 4)
    assert counts.values == (5, 19, 71, 265)
    spec = laddersand.spectral(auto)
    chain = laddersand.parry_chain(auto, spec)
    mass = chain.stationary[auto.inclusion[laddersand.max_rung(path2)]]
    prob = laddersand.cylinder_prob(
        path2, laddersand.CylinderEvent.single((3, 3)), "parry").value
    assert abs(mass - prob) < 1e-12
