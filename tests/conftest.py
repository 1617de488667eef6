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
