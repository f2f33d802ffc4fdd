"""R13 violation: wire-decoded values reach protocol-state mutation
without passing through a ``repro.core.validate`` sanitizer."""


def apply_frame_directly(node, codec, frame):
    # decode() marks its result untrusted; .name/.op inherit the taint.
    message = codec.decode(frame)
    node.update(message.name, message.op)


def adopt_answer(node, answer):
    # ``answer`` names a trust-boundary parameter: tainted on entry.
    node.accept_propagation(answer)


def serve_frame(self, codec, frame):
    # The server side of a peer session: the decoded request reaches
    # the respond() sink without passing a validator.
    message = codec.decode(frame)
    return respond(self.node, message)
