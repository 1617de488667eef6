from tricache.analysis import binom
from tricache.system import mask_of, packet


def mask(*users: int) -> int:
    return mask_of(users)


def pkt(server, file_index, users, K) -> int:
    """The packet int of a segment given as server, file index and user ids."""
    return packet(server, file_index, mask_of(users), K)


def class_members(config, layers, w, has_a1, has_b1):
    """Oracle: the members of one a_1/b_1 class of layer w, by a full scan of
    the layer, in colex order."""
    a1_bit = 1 << config.users_a[0]
    b1_bit = 1 << config.users_b[0]
    return tuple(
        m
        for m in layers[w].members
        if bool(m & a1_bit) == has_a1 and bool(m & b1_bit) == has_b1
    )


def four_way_class_size(K: int, t: int, w: int, has_a1: bool, has_b1: bool) -> int:
    """Size of the a_1/b_1 class of layer w in a symmetric system.

    Containing a_1 fixes one of the w A-side slots; the remaining choices on
    each side come from the K/2 - 1 other users.
    """
    m = K // 2 - 1
    a_choices = binom(m, w - 1) if has_a1 else binom(m, w)
    b_choices = binom(m, t - w) if has_b1 else binom(m, t + 1 - w)
    return a_choices * b_choices


def general_class_size(K: int, t: int, w: int, h1: int | None, h2: int | None) -> int:
    """Size of the class whose least A-user has rank h1 and least B-user rank h2.

    A rank of None means the subset has no user on that side, which forces
    w = 0 (A side) or w = t+1 (B side).
    """
    half = K // 2
    if h1 is None:
        a_choices = 1 if w == 0 else 0
    else:
        a_choices = binom(half - h1, w - 1)
    if h2 is None:
        b_choices = 1 if w == t + 1 else 0
    else:
        b_choices = binom(half - h2, t - w)
    return a_choices * b_choices
