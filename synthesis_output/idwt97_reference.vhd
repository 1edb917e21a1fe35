-- Generated by the repro FOSSY flow (Functional Oldenburg System SYnthesiser
-- reproduction).  Identifiers are preserved from the source model.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity idwt97 is
  port (
    clk    : in  std_logic;
    reset  : in  std_logic;
    start  : in  std_logic;
    done   : out std_logic;
    tile_w : in  signed(9 downto 0);
    tile_h : in  signed(9 downto 0);
    num_levels : in  signed(9 downto 0);
    busy_flag : out signed(0 downto 0));
end entity idwt97;

architecture rtl of idwt97 is
  signal level : signed(9 downto 0);
  signal row : signed(9 downto 0);
  signal col : signed(9 downto 0);
  signal cur_w : signed(9 downto 0);
  signal cur_h : signed(9 downto 0);
  signal latched_w : signed(9 downto 0);
  signal latched_h : signed(9 downto 0);
  signal latched_n : signed(9 downto 0);
  signal row_base : signed(15 downto 0);
  type line_buf_t is array (0 to 260) of signed(17 downto 0);
  signal line_buf : line_buf_t;
  type scratch_buf_t is array (0 to 255) of signed(17 downto 0);
  signal scratch_buf : scratch_buf_t;
  type tile_ram_t is array (0 to 16383) of signed(17 downto 0);
  signal tile_ram : tile_ram_t;

  procedure load_line_h(base : in signed(15 downto 0); stride : in signed(15 downto 0); length : in signed(9 downto 0)) is
    variable k : signed(9 downto 0);
    variable addr : signed(15 downto 0);
  begin
    addr := base;
    for k_i in to_integer(to_signed(0, 10)) to to_integer(length) - 1 loop
      k := to_signed(k_i, 10);
      line_buf(to_integer(resize(k + to_signed(2, 10), 10))) := tile_ram(to_integer(addr));
      addr := resize(addr + stride, 16);
      -- cycle boundary (folded into the caller's schedule)
    end loop;
  end procedure load_line_h;

  procedure load_line_v(base : in signed(15 downto 0); stride : in signed(15 downto 0); length : in signed(9 downto 0)) is
    variable k : signed(9 downto 0);
    variable addr : signed(15 downto 0);
  begin
    addr := base;
    for k_i in to_integer(to_signed(0, 10)) to to_integer(length) - 1 loop
      k := to_signed(k_i, 10);
      line_buf(to_integer(resize(k + to_signed(2, 10), 10))) := tile_ram(to_integer(addr));
      addr := resize(addr + stride, 16);
      -- cycle boundary (folded into the caller's schedule)
    end loop;
  end procedure load_line_v;

  procedure store_line_h(base : in signed(15 downto 0); stride : in signed(15 downto 0); length : in signed(9 downto 0)) is
    variable k : signed(9 downto 0);
    variable addr : signed(15 downto 0);
  begin
    addr := base;
    for k_i in to_integer(to_signed(0, 10)) to to_integer(length) - 1 loop
      k := to_signed(k_i, 10);
      tile_ram(to_integer(addr)) := line_buf(to_integer(resize(k + to_signed(2, 10), 10)));
      addr := resize(addr + stride, 16);
      -- cycle boundary (folded into the caller's schedule)
    end loop;
  end procedure store_line_h;

  procedure store_line_v(base : in signed(15 downto 0); stride : in signed(15 downto 0); length : in signed(9 downto 0)) is
    variable k : signed(9 downto 0);
    variable addr : signed(15 downto 0);
  begin
    addr := base;
    for k_i in to_integer(to_signed(0, 10)) to to_integer(length) - 1 loop
      k := to_signed(k_i, 10);
      tile_ram(to_integer(addr)) := line_buf(to_integer(resize(k + to_signed(2, 10), 10)));
      addr := resize(addr + stride, 16);
      -- cycle boundary (folded into the caller's schedule)
    end loop;
  end procedure store_line_v;

  procedure extend_symmetric(length : in signed(9 downto 0)) is
  begin
    line_buf(to_integer(to_signed(1, 10))) := line_buf(to_integer(to_signed(3, 10)));
    line_buf(to_integer(to_signed(0, 10))) := line_buf(to_integer(to_signed(4, 10)));
    -- cycle boundary (folded into the caller's schedule)
    line_buf(to_integer(resize(length + to_signed(2, 10), 10))) := line_buf(to_integer(length));
    line_buf(to_integer(resize(length + to_signed(3, 10), 10))) := line_buf(to_integer(resize(length - to_signed(1, 10), 10)));
    -- cycle boundary (folded into the caller's schedule)
  end procedure extend_symmetric;

  procedure interleave(length : in signed(9 downto 0); half : in signed(9 downto 0)) is
    variable k : signed(9 downto 0);
  begin
    for k_i in to_integer(to_signed(0, 10)) to to_integer(half) - 1 loop
      k := to_signed(k_i, 10);
      scratch_buf(to_integer(shift_left(k, to_integer(to_signed(1, 10))))) := line_buf(to_integer(resize(k + to_signed(2, 10), 10)));
      scratch_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(1, 10), 10))) := line_buf(to_integer(resize(resize(k + half, 10) + to_signed(2, 10), 10)));
      -- cycle boundary (folded into the caller's schedule)
    end loop;
    for k_i in to_integer(to_signed(0, 10)) to to_integer(length) - 1 loop
      k := to_signed(k_i, 10);
      line_buf(to_integer(resize(k + to_signed(2, 10), 10))) := scratch_buf(to_integer(k));
      -- cycle boundary (folded into the caller's schedule)
    end loop;
  end procedure interleave;

  procedure clamp_line(length : in signed(9 downto 0)) is
    variable k : signed(9 downto 0);
    variable value : signed(25 downto 0);
  begin
    for k_i in to_integer(to_signed(0, 10)) to to_integer(length) - 1 loop
      k := to_signed(k_i, 10);
      value := line_buf(to_integer(resize(k + to_signed(2, 10), 10)));
      -- cycle boundary (folded into the caller's schedule)
      if (value > to_signed(16777215, 26)) then
        line_buf(to_integer(resize(k + to_signed(2, 10), 10))) := to_signed(16777215, 26);
      else
        if (value < to_signed(-16777216, 26)) then
          line_buf(to_integer(resize(k + to_signed(2, 10), 10))) := to_signed(-16777216, 26);
        end if;
      end if;
      -- cycle boundary (folded into the caller's schedule)
    end loop;
  end procedure clamp_line;

  procedure scale_line(length : in signed(9 downto 0)) is
    variable k : signed(9 downto 0);
    variable product : signed(25 downto 0);
    variable half : signed(9 downto 0);
  begin
    half := resize(shift_right(length, to_integer(to_signed(1, 10))) + (length and to_signed(1, 10)), 10);
    for k_i in to_integer(to_signed(0, 10)) to to_integer(half) - 1 loop
      k := to_signed(k_i, 10);
      product := resize(line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) * to_signed(20155, 26), 26);
      -- cycle boundary (folded into the caller's schedule)
      line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) := shift_right(resize(product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26)));
      -- cycle boundary (folded into the caller's schedule)
    end loop;
    for k_i in to_integer(to_signed(0, 10)) to to_integer(shift_right(length, to_integer(to_signed(1, 10)))) - 1 loop
      k := to_signed(k_i, 10);
      product := resize(line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) * to_signed(13318, 26), 26);
      -- cycle boundary (folded into the caller's schedule)
      line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) := shift_right(resize(product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26)));
      -- cycle boundary (folded into the caller's schedule)
    end loop;
  end procedure scale_line;

  procedure undo_delta(length : in signed(9 downto 0)) is
    variable k : signed(9 downto 0);
    variable total : signed(25 downto 0);
    variable product : signed(25 downto 0);
    variable half : signed(9 downto 0);
  begin
    half := resize(shift_right(length, to_integer(to_signed(1, 10))) + (length and to_signed(1, 10)), 10);
    for k_i in to_integer(to_signed(0, 10)) to to_integer(half) - 1 loop
      k := to_signed(k_i, 10);
      total := resize(line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(1, 10), 10))) + line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))), 26);
      -- cycle boundary (folded into the caller's schedule)
      product := resize(total * to_signed(-7266, 26), 26);
      -- cycle boundary (folded into the caller's schedule)
      line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) := resize(line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) + shift_right(resize(product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26))), 26);
      -- cycle boundary (folded into the caller's schedule)
    end loop;
  end procedure undo_delta;

  procedure undo_gamma(length : in signed(9 downto 0)) is
    variable k : signed(9 downto 0);
    variable total : signed(25 downto 0);
    variable product : signed(25 downto 0);
    variable half : signed(9 downto 0);
  begin
    half := shift_right(length, to_integer(to_signed(1, 10)));
    for k_i in to_integer(to_signed(0, 10)) to to_integer(half) - 1 loop
      k := to_signed(k_i, 10);
      total := resize(line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) + line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(4, 10), 10))), 26);
      -- cycle boundary (folded into the caller's schedule)
      product := resize(total * to_signed(-14464, 26), 26);
      -- cycle boundary (folded into the caller's schedule)
      line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) := resize(line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) + shift_right(resize(product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26))), 26);
      -- cycle boundary (folded into the caller's schedule)
    end loop;
  end procedure undo_gamma;

  procedure undo_beta(length : in signed(9 downto 0)) is
    variable k : signed(9 downto 0);
    variable total : signed(25 downto 0);
    variable product : signed(25 downto 0);
    variable half : signed(9 downto 0);
  begin
    half := resize(shift_right(length, to_integer(to_signed(1, 10))) + (length and to_signed(1, 10)), 10);
    for k_i in to_integer(to_signed(0, 10)) to to_integer(half) - 1 loop
      k := to_signed(k_i, 10);
      total := resize(line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(1, 10), 10))) + line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))), 26);
      -- cycle boundary (folded into the caller's schedule)
      product := resize(total * to_signed(868, 26), 26);
      -- cycle boundary (folded into the caller's schedule)
      line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) := resize(line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) + shift_right(resize(product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26))), 26);
      -- cycle boundary (folded into the caller's schedule)
    end loop;
  end procedure undo_beta;

  procedure undo_alpha(length : in signed(9 downto 0)) is
    variable k : signed(9 downto 0);
    variable total : signed(25 downto 0);
    variable product : signed(25 downto 0);
    variable half : signed(9 downto 0);
  begin
    half := shift_right(length, to_integer(to_signed(1, 10)));
    for k_i in to_integer(to_signed(0, 10)) to to_integer(half) - 1 loop
      k := to_signed(k_i, 10);
      total := resize(line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) + line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(4, 10), 10))), 26);
      -- cycle boundary (folded into the caller's schedule)
      product := resize(total * to_signed(25987, 26), 26);
      -- cycle boundary (folded into the caller's schedule)
      line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) := resize(line_buf(to_integer(resize(shift_left(k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) + shift_right(resize(product + to_signed(8192, 26), 26), to_integer(to_signed(14, 26))), 26);
      -- cycle boundary (folded into the caller's schedule)
    end loop;
  end procedure undo_alpha;

  procedure lift_line_97(length : in signed(9 downto 0)) is
  begin
    if (length > to_signed(1, 10)) then
      scale_line(length);
      extend_symmetric(length);
      undo_delta(length);
      extend_symmetric(length);
      undo_gamma(length);
      extend_symmetric(length);
      undo_beta(length);
      extend_symmetric(length);
      undo_alpha(length);
    end if;
  end procedure lift_line_97;

begin
  control : process (clk)
  begin
    if rising_edge(clk) then
      if reset = '1' then
        done <= '0';
      elsif start = '1' then
        busy_flag := to_signed(1, 1);
        latched_w := tile_w;
        latched_h := tile_h;
        latched_n := num_levels;
        -- cycle boundary (folded into the caller's schedule)
        if (latched_n > to_signed(6, 10)) then
          latched_n := to_signed(6, 10);
        end if;
        if (latched_w < to_signed(2, 10)) then
          latched_w := to_signed(2, 10);
        end if;
        if (latched_h < to_signed(2, 10)) then
          latched_h := to_signed(2, 10);
        end if;
        -- cycle boundary (folded into the caller's schedule)
        cur_w := shift_right(latched_w, to_integer(resize(latched_n - to_signed(1, 10), 10)));
        cur_h := shift_right(latched_h, to_integer(resize(latched_n - to_signed(1, 10), 10)));
        -- cycle boundary (folded into the caller's schedule)
        for level_i in to_integer(to_signed(0, 10)) to to_integer(latched_n) - 1 loop
          level := to_signed(level_i, 10);
          for col_i in to_integer(to_signed(0, 10)) to to_integer(cur_w) - 1 loop
            col := to_signed(col_i, 10);
            load_line_v(resize(col + to_signed(0, 16), 16), resize(latched_w + to_signed(0, 16), 16), cur_h);
            interleave(cur_h, resize(shift_right(cur_h, to_integer(to_signed(1, 10))) + (cur_h and to_signed(1, 10)), 10));
            lift_line_97(cur_h);
            store_line_v(resize(col + to_signed(0, 16), 16), resize(latched_w + to_signed(0, 16), 16), cur_h);
          end loop;
          row_base := to_signed(0, 16);
          for row_i in to_integer(to_signed(0, 10)) to to_integer(cur_h) - 1 loop
            row := to_signed(row_i, 10);
            load_line_h(row_base, to_signed(1, 16), cur_w);
            interleave(cur_w, resize(shift_right(cur_w, to_integer(to_signed(1, 10))) + (cur_w and to_signed(1, 10)), 10));
            lift_line_97(cur_w);
            if (level = resize(latched_n - to_signed(1, 10), 10)) then
              clamp_line(cur_w);
            end if;
            store_line_h(row_base, to_signed(1, 16), cur_w);
            row_base := resize(row_base + resize(latched_w + to_signed(0, 16), 16), 16);
          end loop;
          cur_w := shift_left(cur_w, to_integer(to_signed(1, 10)));
          cur_h := shift_left(cur_h, to_integer(to_signed(1, 10)));
          -- cycle boundary (folded into the caller's schedule)
        end loop;
        busy_flag := to_signed(0, 1);
        -- cycle boundary (folded into the caller's schedule)
        done <= '1';
      end if;
    end if;
  end process control;
end architecture rtl;
