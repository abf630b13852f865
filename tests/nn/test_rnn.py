"""LSTM / BiLSTM / attention tests."""

import numpy as np

from repro.nn import Adam, BiLSTM, LSTM, LSTMCell, AdditiveAttention, Tensor


def rng():
    return np.random.default_rng(3)


class TestLSTMCell:
    def test_output_shapes(self):
        cell = LSTMCell(4, 6, rng())
        h, c = cell(Tensor(np.ones(4)), cell.initial_state())
        assert h.shape == (6,) and c.shape == (6,)

    def test_batched(self):
        cell = LSTMCell(4, 6, rng())
        h, c = cell(Tensor(np.ones((3, 4))), cell.initial_state(batch=3))
        assert h.shape == (3, 6)

    def test_forget_bias_initialized(self):
        cell = LSTMCell(2, 3, rng())
        np.testing.assert_allclose(cell.bias.data[3:6], 1.0)

    def test_gradients_reach_input_weights(self):
        cell = LSTMCell(2, 3, rng())
        h, _ = cell(Tensor(np.ones(2)), cell.initial_state())
        h.sum().backward()
        assert cell.w_ih.grad is not None and np.abs(cell.w_ih.grad).sum() > 0


class TestLSTM:
    def test_sequence_shapes(self):
        lstm = LSTM(3, 5, rng())
        out, (h, c) = lstm(Tensor(np.ones((7, 3))))
        assert out.shape == (7, 5) and h.shape == (5,)

    def test_state_threads_through_time(self):
        # Outputs must differ across steps for constant input (state evolves).
        lstm = LSTM(2, 4, rng())
        out, _ = lstm(Tensor(np.ones((3, 2))))
        assert not np.allclose(out.data[0], out.data[2])

    def test_can_learn_sign_of_first_element(self):
        r = np.random.default_rng(1)
        lstm = LSTM(1, 8, r)
        from repro.nn import Linear

        head = Linear(8, 1, r)
        params = list(lstm.parameters()) + list(head.parameters())
        opt = Adam(params, lr=0.02)
        losses = []
        for step in range(120):
            x = r.choice([-1.0, 1.0]) * np.ones((4, 1))
            target = 1.0 if x[0, 0] > 0 else 0.0
            opt.zero_grad()
            out, _ = lstm(Tensor(x))
            logit = head(out[-1])
            prob = logit.sigmoid()
            loss = -(
                Tensor([target]) * (prob + 1e-9).log()
                + Tensor([1 - target]) * (Tensor([1.0]) - prob + 1e-9).log()
            ).sum()
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        assert np.mean(losses[-20:]) < np.mean(losses[:20])


class TestBiLSTM:
    def test_concat_dims(self):
        bi = BiLSTM(3, 5, rng())
        out = bi(Tensor(np.ones((6, 3))))
        assert out.shape == (6, 10)

    def test_backward_direction_sees_future(self):
        # Make the last input special; the backward pass should expose it at t=0.
        bi = BiLSTM(1, 4, rng())
        x1 = np.zeros((5, 1))
        x2 = np.zeros((5, 1))
        x2[-1] = 5.0
        o1, o2 = bi(Tensor(x1)).data, bi(Tensor(x2)).data
        # forward half at t=0 identical, backward half differs
        np.testing.assert_allclose(o1[0, :4], o2[0, :4])
        assert not np.allclose(o1[0, 4:], o2[0, 4:])


class TestAttention:
    def test_context_shape(self):
        attn = AdditiveAttention(4, 6, 5, rng())
        ctx = attn(Tensor(np.ones(4)), Tensor(np.ones((7, 6))))
        assert ctx.shape == (6,)

    def test_attends_to_matching_key(self):
        # Query aligned with one memory row should weight it most after training.
        r = np.random.default_rng(5)
        attn = AdditiveAttention(2, 2, 8, r)
        memory = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        opt = Adam(attn.parameters(), lr=0.05)
        for _ in range(100):
            opt.zero_grad()
            ctx = attn(Tensor(np.array([1.0, 0.0])), memory)
            diff = ctx - Tensor(np.array([1.0, 0.0]))
            loss = (diff * diff).sum()
            loss.backward()
            opt.step()
        assert float(loss.data) < 0.05
