-- Generated by the repro FOSSY flow (Functional Oldenburg System SYnthesiser
-- reproduction).  Identifiers are preserved from the source model.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity idwt53 is
  port (
    clk    : in  std_logic;
    reset  : in  std_logic;
    start  : in  std_logic;
    done   : out std_logic;
    tile_w : in  signed(9 downto 0);
    tile_h : in  signed(9 downto 0);
    num_levels : in  signed(9 downto 0);
    busy_flag : out signed(0 downto 0));
end entity idwt53;

architecture fossy of idwt53 is
  type state_t is (
    s001_start,
    s002_tick,
    s003_then,
    s004_join,
    s005_then,
    s006_join,
    s007_then,
    s008_join,
    s009_tick,
    s010_tick,
    s011_for_level,
    s012_do_level,
    s013_for_col,
    s014_do_col,
    s015_for_load_line_v_i1_k,
    s016_do_load_line_v_i1_k,
    s017_tick,
    s018_end_load_line_v_i1_k,
    s019_for_interleave_i2_k,
    s020_do_interleave_i2_k,
    s021_tick,
    s022_end_interleave_i2_k,
    s023_for_interleave_i2_k,
    s024_do_interleave_i2_k,
    s025_tick,
    s026_end_interleave_i2_k,
    s027_then,
    s028_tick,
    s029_tick,
    s030_for_update_even_i5_k,
    s031_do_update_even_i5_k,
    s032_tick,
    s033_tick,
    s034_end_update_even_i5_k,
    s035_tick,
    s036_tick,
    s037_for_predict_odd_i7_k,
    s038_do_predict_odd_i7_k,
    s039_tick,
    s040_tick,
    s041_end_predict_odd_i7_k,
    s042_join,
    s043_for_store_line_v_i8_k,
    s044_do_store_line_v_i8_k,
    s045_tick,
    s046_end_store_line_v_i8_k,
    s047_end_col,
    s048_for_row,
    s049_do_row,
    s050_for_load_line_h_i9_k,
    s051_do_load_line_h_i9_k,
    s052_tick,
    s053_end_load_line_h_i9_k,
    s054_for_interleave_i10_k,
    s055_do_interleave_i10_k,
    s056_tick,
    s057_end_interleave_i10_k,
    s058_for_interleave_i10_k,
    s059_do_interleave_i10_k,
    s060_tick,
    s061_end_interleave_i10_k,
    s062_then,
    s063_tick,
    s064_tick,
    s065_for_update_even_i13_k,
    s066_do_update_even_i13_k,
    s067_tick,
    s068_tick,
    s069_end_update_even_i13_k,
    s070_tick,
    s071_tick,
    s072_for_predict_odd_i15_k,
    s073_do_predict_odd_i15_k,
    s074_tick,
    s075_tick,
    s076_end_predict_odd_i15_k,
    s077_join,
    s078_then,
    s079_for_clamp_line_i16_k,
    s080_do_clamp_line_i16_k,
    s081_tick,
    s082_then,
    s083_else,
    s084_then,
    s085_join,
    s086_join,
    s087_tick,
    s088_end_clamp_line_i16_k,
    s089_join,
    s090_for_store_line_h_i17_k,
    s091_do_store_line_h_i17_k,
    s092_tick,
    s093_end_store_line_h_i17_k,
    s094_end_row,
    s095_tick,
    s096_end_level,
    s097_tick,
    DONE
  );
  signal state : state_t := s001_start;
  signal level : signed(9 downto 0);
  signal row : signed(9 downto 0);
  signal col : signed(9 downto 0);
  signal cur_w : signed(9 downto 0);
  signal cur_h : signed(9 downto 0);
  signal latched_w : signed(9 downto 0);
  signal latched_h : signed(9 downto 0);
  signal latched_n : signed(9 downto 0);
  signal row_base : signed(15 downto 0);
  signal load_line_v_i1_k : signed(9 downto 0);
  signal load_line_v_i1_addr : signed(15 downto 0);
  signal interleave_i2_k : signed(9 downto 0);
  signal update_even_i5_k : signed(9 downto 0);
  signal update_even_i5_total : signed(17 downto 0);
  signal update_even_i5_half : signed(9 downto 0);
  signal predict_odd_i7_k : signed(9 downto 0);
  signal predict_odd_i7_total : signed(17 downto 0);
  signal predict_odd_i7_half : signed(9 downto 0);
  signal store_line_v_i8_k : signed(9 downto 0);
  signal store_line_v_i8_addr : signed(15 downto 0);
  signal load_line_h_i9_k : signed(9 downto 0);
  signal load_line_h_i9_addr : signed(15 downto 0);
  signal interleave_i10_k : signed(9 downto 0);
  signal update_even_i13_k : signed(9 downto 0);
  signal update_even_i13_total : signed(17 downto 0);
  signal update_even_i13_half : signed(9 downto 0);
  signal predict_odd_i15_k : signed(9 downto 0);
  signal predict_odd_i15_total : signed(17 downto 0);
  signal predict_odd_i15_half : signed(9 downto 0);
  signal clamp_line_i16_k : signed(9 downto 0);
  signal clamp_line_i16_value : signed(17 downto 0);
  signal store_line_h_i17_k : signed(9 downto 0);
  signal store_line_h_i17_addr : signed(15 downto 0);
  type line_buf_t is array (0 to 260) of signed(17 downto 0);
  signal line_buf : line_buf_t;
  type scratch_buf_t is array (0 to 255) of signed(17 downto 0);
  signal scratch_buf : scratch_buf_t;
  type tile_ram_t is array (0 to 16383) of signed(17 downto 0);
  signal tile_ram : tile_ram_t;
begin
  fsm : process (clk)
  begin
    if rising_edge(clk) then
      if reset = '1' then
        state <= s001_start;
        done <= '0';
      else
        case state is
          when s001_start =>
            busy_flag <= to_signed(1, 1);
            latched_w <= tile_w;
            latched_h <= tile_h;
            latched_n <= num_levels;
            state <= s002_tick;
          when s002_tick =>
            if (latched_n > to_signed(6, 10)) then
              state <= s003_then;
            else
              state <= s004_join;
            end if;
          when s003_then =>
            latched_n <= to_signed(6, 10);
            state <= s004_join;
          when s004_join =>
            if (latched_w < to_signed(2, 10)) then
              state <= s005_then;
            else
              state <= s006_join;
            end if;
          when s005_then =>
            latched_w <= to_signed(2, 10);
            state <= s006_join;
          when s006_join =>
            if (latched_h < to_signed(2, 10)) then
              state <= s007_then;
            else
              state <= s008_join;
            end if;
          when s007_then =>
            latched_h <= to_signed(2, 10);
            state <= s008_join;
          when s008_join =>
            state <= s009_tick;
          when s009_tick =>
            cur_w <= shift_right(latched_w, to_integer(resize(latched_n - to_signed(1, 10), 10)));
            cur_h <= shift_right(latched_h, to_integer(resize(latched_n - to_signed(1, 10), 10)));
            state <= s010_tick;
          when s010_tick =>
            level <= to_signed(0, 10);
            state <= s011_for_level;
          when s011_for_level =>
            if (level < latched_n) then
              state <= s012_do_level;
            else
              state <= s096_end_level;
            end if;
          when s012_do_level =>
            col <= to_signed(0, 10);
            state <= s013_for_col;
          when s013_for_col =>
            if (col < cur_w) then
              state <= s014_do_col;
            else
              state <= s047_end_col;
            end if;
          when s014_do_col =>
            load_line_v_i1_addr <= resize(col + to_signed(0, 16), 16);
            load_line_v_i1_k <= to_signed(0, 10);
            state <= s015_for_load_line_v_i1_k;
          when s015_for_load_line_v_i1_k =>
            if (load_line_v_i1_k < cur_h) then
              state <= s016_do_load_line_v_i1_k;
            else
              state <= s018_end_load_line_v_i1_k;
            end if;
          when s016_do_load_line_v_i1_k =>
            line_buf(to_integer(resize(load_line_v_i1_k + to_signed(2, 10), 10))) <= tile_ram(to_integer(load_line_v_i1_addr));
            load_line_v_i1_addr <= resize(load_line_v_i1_addr + resize(latched_w + to_signed(0, 16), 16), 16);
            state <= s017_tick;
          when s017_tick =>
            load_line_v_i1_k <= resize(load_line_v_i1_k + to_signed(1, 10), 10);
            state <= s015_for_load_line_v_i1_k;
          when s018_end_load_line_v_i1_k =>
            interleave_i2_k <= to_signed(0, 10);
            state <= s019_for_interleave_i2_k;
          when s019_for_interleave_i2_k =>
            if (interleave_i2_k < resize(shift_right(cur_h, to_integer(to_signed(1, 10))) + (cur_h and to_signed(1, 10)), 10)) then
              state <= s020_do_interleave_i2_k;
            else
              state <= s022_end_interleave_i2_k;
            end if;
          when s020_do_interleave_i2_k =>
            scratch_buf(to_integer(shift_left(interleave_i2_k, to_integer(to_signed(1, 10))))) <= line_buf(to_integer(resize(interleave_i2_k + to_signed(2, 10), 10)));
            scratch_buf(to_integer(resize(shift_left(interleave_i2_k, to_integer(to_signed(1, 10))) + to_signed(1, 10), 10))) <= line_buf(to_integer(resize(resize(interleave_i2_k + resize(shift_right(cur_h, to_integer(to_signed(1, 10))) + (cur_h and to_signed(1, 10)), 10), 10) + to_signed(2, 10), 10)));
            state <= s021_tick;
          when s021_tick =>
            interleave_i2_k <= resize(interleave_i2_k + to_signed(1, 10), 10);
            state <= s019_for_interleave_i2_k;
          when s022_end_interleave_i2_k =>
            interleave_i2_k <= to_signed(0, 10);
            state <= s023_for_interleave_i2_k;
          when s023_for_interleave_i2_k =>
            if (interleave_i2_k < cur_h) then
              state <= s024_do_interleave_i2_k;
            else
              state <= s026_end_interleave_i2_k;
            end if;
          when s024_do_interleave_i2_k =>
            line_buf(to_integer(resize(interleave_i2_k + to_signed(2, 10), 10))) <= scratch_buf(to_integer(interleave_i2_k));
            state <= s025_tick;
          when s025_tick =>
            interleave_i2_k <= resize(interleave_i2_k + to_signed(1, 10), 10);
            state <= s023_for_interleave_i2_k;
          when s026_end_interleave_i2_k =>
            if (cur_h > to_signed(1, 10)) then
              state <= s027_then;
            else
              state <= s042_join;
            end if;
          when s027_then =>
            line_buf(to_integer(to_signed(1, 10))) <= line_buf(to_integer(to_signed(3, 10)));
            line_buf(to_integer(to_signed(0, 10))) <= line_buf(to_integer(to_signed(4, 10)));
            state <= s028_tick;
          when s028_tick =>
            line_buf(to_integer(resize(cur_h + to_signed(2, 10), 10))) <= line_buf(to_integer(cur_h));
            line_buf(to_integer(resize(cur_h + to_signed(3, 10), 10))) <= line_buf(to_integer(resize(cur_h - to_signed(1, 10), 10)));
            state <= s029_tick;
          when s029_tick =>
            update_even_i5_half <= resize(shift_right(cur_h, to_integer(to_signed(1, 10))) + (cur_h and to_signed(1, 10)), 10);
            update_even_i5_k <= to_signed(0, 10);
            state <= s030_for_update_even_i5_k;
          when s030_for_update_even_i5_k =>
            if (update_even_i5_k < update_even_i5_half) then
              state <= s031_do_update_even_i5_k;
            else
              state <= s034_end_update_even_i5_k;
            end if;
          when s031_do_update_even_i5_k =>
            update_even_i5_total <= resize(resize(line_buf(to_integer(resize(shift_left(update_even_i5_k, to_integer(to_signed(1, 10))) + to_signed(1, 10), 10))) + line_buf(to_integer(resize(shift_left(update_even_i5_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))), 18) + to_signed(2, 18), 18);
            state <= s032_tick;
          when s032_tick =>
            line_buf(to_integer(resize(shift_left(update_even_i5_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) <= resize(line_buf(to_integer(resize(shift_left(update_even_i5_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) - shift_right(update_even_i5_total, to_integer(to_signed(2, 18))), 18);
            state <= s033_tick;
          when s033_tick =>
            update_even_i5_k <= resize(update_even_i5_k + to_signed(1, 10), 10);
            state <= s030_for_update_even_i5_k;
          when s034_end_update_even_i5_k =>
            line_buf(to_integer(to_signed(1, 10))) <= line_buf(to_integer(to_signed(3, 10)));
            line_buf(to_integer(to_signed(0, 10))) <= line_buf(to_integer(to_signed(4, 10)));
            state <= s035_tick;
          when s035_tick =>
            line_buf(to_integer(resize(cur_h + to_signed(2, 10), 10))) <= line_buf(to_integer(cur_h));
            line_buf(to_integer(resize(cur_h + to_signed(3, 10), 10))) <= line_buf(to_integer(resize(cur_h - to_signed(1, 10), 10)));
            state <= s036_tick;
          when s036_tick =>
            predict_odd_i7_half <= shift_right(cur_h, to_integer(to_signed(1, 10)));
            predict_odd_i7_k <= to_signed(0, 10);
            state <= s037_for_predict_odd_i7_k;
          when s037_for_predict_odd_i7_k =>
            if (predict_odd_i7_k < predict_odd_i7_half) then
              state <= s038_do_predict_odd_i7_k;
            else
              state <= s041_end_predict_odd_i7_k;
            end if;
          when s038_do_predict_odd_i7_k =>
            predict_odd_i7_total <= resize(line_buf(to_integer(resize(shift_left(predict_odd_i7_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) + line_buf(to_integer(resize(shift_left(predict_odd_i7_k, to_integer(to_signed(1, 10))) + to_signed(4, 10), 10))), 18);
            state <= s039_tick;
          when s039_tick =>
            line_buf(to_integer(resize(shift_left(predict_odd_i7_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) <= resize(line_buf(to_integer(resize(shift_left(predict_odd_i7_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) + shift_right(predict_odd_i7_total, to_integer(to_signed(1, 18))), 18);
            state <= s040_tick;
          when s040_tick =>
            predict_odd_i7_k <= resize(predict_odd_i7_k + to_signed(1, 10), 10);
            state <= s037_for_predict_odd_i7_k;
          when s041_end_predict_odd_i7_k =>
            state <= s042_join;
          when s042_join =>
            store_line_v_i8_addr <= resize(col + to_signed(0, 16), 16);
            store_line_v_i8_k <= to_signed(0, 10);
            state <= s043_for_store_line_v_i8_k;
          when s043_for_store_line_v_i8_k =>
            if (store_line_v_i8_k < cur_h) then
              state <= s044_do_store_line_v_i8_k;
            else
              state <= s046_end_store_line_v_i8_k;
            end if;
          when s044_do_store_line_v_i8_k =>
            tile_ram(to_integer(store_line_v_i8_addr)) <= line_buf(to_integer(resize(store_line_v_i8_k + to_signed(2, 10), 10)));
            store_line_v_i8_addr <= resize(store_line_v_i8_addr + resize(latched_w + to_signed(0, 16), 16), 16);
            state <= s045_tick;
          when s045_tick =>
            store_line_v_i8_k <= resize(store_line_v_i8_k + to_signed(1, 10), 10);
            state <= s043_for_store_line_v_i8_k;
          when s046_end_store_line_v_i8_k =>
            col <= resize(col + to_signed(1, 10), 10);
            state <= s013_for_col;
          when s047_end_col =>
            row_base <= to_signed(0, 16);
            row <= to_signed(0, 10);
            state <= s048_for_row;
          when s048_for_row =>
            if (row < cur_h) then
              state <= s049_do_row;
            else
              state <= s094_end_row;
            end if;
          when s049_do_row =>
            load_line_h_i9_addr <= row_base;
            load_line_h_i9_k <= to_signed(0, 10);
            state <= s050_for_load_line_h_i9_k;
          when s050_for_load_line_h_i9_k =>
            if (load_line_h_i9_k < cur_w) then
              state <= s051_do_load_line_h_i9_k;
            else
              state <= s053_end_load_line_h_i9_k;
            end if;
          when s051_do_load_line_h_i9_k =>
            line_buf(to_integer(resize(load_line_h_i9_k + to_signed(2, 10), 10))) <= tile_ram(to_integer(load_line_h_i9_addr));
            load_line_h_i9_addr <= resize(load_line_h_i9_addr + to_signed(1, 16), 16);
            state <= s052_tick;
          when s052_tick =>
            load_line_h_i9_k <= resize(load_line_h_i9_k + to_signed(1, 10), 10);
            state <= s050_for_load_line_h_i9_k;
          when s053_end_load_line_h_i9_k =>
            interleave_i10_k <= to_signed(0, 10);
            state <= s054_for_interleave_i10_k;
          when s054_for_interleave_i10_k =>
            if (interleave_i10_k < resize(shift_right(cur_w, to_integer(to_signed(1, 10))) + (cur_w and to_signed(1, 10)), 10)) then
              state <= s055_do_interleave_i10_k;
            else
              state <= s057_end_interleave_i10_k;
            end if;
          when s055_do_interleave_i10_k =>
            scratch_buf(to_integer(shift_left(interleave_i10_k, to_integer(to_signed(1, 10))))) <= line_buf(to_integer(resize(interleave_i10_k + to_signed(2, 10), 10)));
            scratch_buf(to_integer(resize(shift_left(interleave_i10_k, to_integer(to_signed(1, 10))) + to_signed(1, 10), 10))) <= line_buf(to_integer(resize(resize(interleave_i10_k + resize(shift_right(cur_w, to_integer(to_signed(1, 10))) + (cur_w and to_signed(1, 10)), 10), 10) + to_signed(2, 10), 10)));
            state <= s056_tick;
          when s056_tick =>
            interleave_i10_k <= resize(interleave_i10_k + to_signed(1, 10), 10);
            state <= s054_for_interleave_i10_k;
          when s057_end_interleave_i10_k =>
            interleave_i10_k <= to_signed(0, 10);
            state <= s058_for_interleave_i10_k;
          when s058_for_interleave_i10_k =>
            if (interleave_i10_k < cur_w) then
              state <= s059_do_interleave_i10_k;
            else
              state <= s061_end_interleave_i10_k;
            end if;
          when s059_do_interleave_i10_k =>
            line_buf(to_integer(resize(interleave_i10_k + to_signed(2, 10), 10))) <= scratch_buf(to_integer(interleave_i10_k));
            state <= s060_tick;
          when s060_tick =>
            interleave_i10_k <= resize(interleave_i10_k + to_signed(1, 10), 10);
            state <= s058_for_interleave_i10_k;
          when s061_end_interleave_i10_k =>
            if (cur_w > to_signed(1, 10)) then
              state <= s062_then;
            else
              state <= s077_join;
            end if;
          when s062_then =>
            line_buf(to_integer(to_signed(1, 10))) <= line_buf(to_integer(to_signed(3, 10)));
            line_buf(to_integer(to_signed(0, 10))) <= line_buf(to_integer(to_signed(4, 10)));
            state <= s063_tick;
          when s063_tick =>
            line_buf(to_integer(resize(cur_w + to_signed(2, 10), 10))) <= line_buf(to_integer(cur_w));
            line_buf(to_integer(resize(cur_w + to_signed(3, 10), 10))) <= line_buf(to_integer(resize(cur_w - to_signed(1, 10), 10)));
            state <= s064_tick;
          when s064_tick =>
            update_even_i13_half <= resize(shift_right(cur_w, to_integer(to_signed(1, 10))) + (cur_w and to_signed(1, 10)), 10);
            update_even_i13_k <= to_signed(0, 10);
            state <= s065_for_update_even_i13_k;
          when s065_for_update_even_i13_k =>
            if (update_even_i13_k < update_even_i13_half) then
              state <= s066_do_update_even_i13_k;
            else
              state <= s069_end_update_even_i13_k;
            end if;
          when s066_do_update_even_i13_k =>
            update_even_i13_total <= resize(resize(line_buf(to_integer(resize(shift_left(update_even_i13_k, to_integer(to_signed(1, 10))) + to_signed(1, 10), 10))) + line_buf(to_integer(resize(shift_left(update_even_i13_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))), 18) + to_signed(2, 18), 18);
            state <= s067_tick;
          when s067_tick =>
            line_buf(to_integer(resize(shift_left(update_even_i13_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) <= resize(line_buf(to_integer(resize(shift_left(update_even_i13_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) - shift_right(update_even_i13_total, to_integer(to_signed(2, 18))), 18);
            state <= s068_tick;
          when s068_tick =>
            update_even_i13_k <= resize(update_even_i13_k + to_signed(1, 10), 10);
            state <= s065_for_update_even_i13_k;
          when s069_end_update_even_i13_k =>
            line_buf(to_integer(to_signed(1, 10))) <= line_buf(to_integer(to_signed(3, 10)));
            line_buf(to_integer(to_signed(0, 10))) <= line_buf(to_integer(to_signed(4, 10)));
            state <= s070_tick;
          when s070_tick =>
            line_buf(to_integer(resize(cur_w + to_signed(2, 10), 10))) <= line_buf(to_integer(cur_w));
            line_buf(to_integer(resize(cur_w + to_signed(3, 10), 10))) <= line_buf(to_integer(resize(cur_w - to_signed(1, 10), 10)));
            state <= s071_tick;
          when s071_tick =>
            predict_odd_i15_half <= shift_right(cur_w, to_integer(to_signed(1, 10)));
            predict_odd_i15_k <= to_signed(0, 10);
            state <= s072_for_predict_odd_i15_k;
          when s072_for_predict_odd_i15_k =>
            if (predict_odd_i15_k < predict_odd_i15_half) then
              state <= s073_do_predict_odd_i15_k;
            else
              state <= s076_end_predict_odd_i15_k;
            end if;
          when s073_do_predict_odd_i15_k =>
            predict_odd_i15_total <= resize(line_buf(to_integer(resize(shift_left(predict_odd_i15_k, to_integer(to_signed(1, 10))) + to_signed(2, 10), 10))) + line_buf(to_integer(resize(shift_left(predict_odd_i15_k, to_integer(to_signed(1, 10))) + to_signed(4, 10), 10))), 18);
            state <= s074_tick;
          when s074_tick =>
            line_buf(to_integer(resize(shift_left(predict_odd_i15_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) <= resize(line_buf(to_integer(resize(shift_left(predict_odd_i15_k, to_integer(to_signed(1, 10))) + to_signed(3, 10), 10))) + shift_right(predict_odd_i15_total, to_integer(to_signed(1, 18))), 18);
            state <= s075_tick;
          when s075_tick =>
            predict_odd_i15_k <= resize(predict_odd_i15_k + to_signed(1, 10), 10);
            state <= s072_for_predict_odd_i15_k;
          when s076_end_predict_odd_i15_k =>
            state <= s077_join;
          when s077_join =>
            if (level = resize(latched_n - to_signed(1, 10), 10)) then
              state <= s078_then;
            else
              state <= s089_join;
            end if;
          when s078_then =>
            clamp_line_i16_k <= to_signed(0, 10);
            state <= s079_for_clamp_line_i16_k;
          when s079_for_clamp_line_i16_k =>
            if (clamp_line_i16_k < cur_w) then
              state <= s080_do_clamp_line_i16_k;
            else
              state <= s088_end_clamp_line_i16_k;
            end if;
          when s080_do_clamp_line_i16_k =>
            clamp_line_i16_value <= line_buf(to_integer(resize(clamp_line_i16_k + to_signed(2, 10), 10)));
            state <= s081_tick;
          when s081_tick =>
            if (clamp_line_i16_value > to_signed(65535, 18)) then
              state <= s082_then;
            else
              state <= s083_else;
            end if;
          when s082_then =>
            line_buf(to_integer(resize(clamp_line_i16_k + to_signed(2, 10), 10))) <= to_signed(65535, 18);
            state <= s086_join;
          when s083_else =>
            if (clamp_line_i16_value < to_signed(-65536, 18)) then
              state <= s084_then;
            else
              state <= s085_join;
            end if;
          when s084_then =>
            line_buf(to_integer(resize(clamp_line_i16_k + to_signed(2, 10), 10))) <= to_signed(-65536, 18);
            state <= s085_join;
          when s085_join =>
            state <= s086_join;
          when s086_join =>
            state <= s087_tick;
          when s087_tick =>
            clamp_line_i16_k <= resize(clamp_line_i16_k + to_signed(1, 10), 10);
            state <= s079_for_clamp_line_i16_k;
          when s088_end_clamp_line_i16_k =>
            state <= s089_join;
          when s089_join =>
            store_line_h_i17_addr <= row_base;
            store_line_h_i17_k <= to_signed(0, 10);
            state <= s090_for_store_line_h_i17_k;
          when s090_for_store_line_h_i17_k =>
            if (store_line_h_i17_k < cur_w) then
              state <= s091_do_store_line_h_i17_k;
            else
              state <= s093_end_store_line_h_i17_k;
            end if;
          when s091_do_store_line_h_i17_k =>
            tile_ram(to_integer(store_line_h_i17_addr)) <= line_buf(to_integer(resize(store_line_h_i17_k + to_signed(2, 10), 10)));
            store_line_h_i17_addr <= resize(store_line_h_i17_addr + to_signed(1, 16), 16);
            state <= s092_tick;
          when s092_tick =>
            store_line_h_i17_k <= resize(store_line_h_i17_k + to_signed(1, 10), 10);
            state <= s090_for_store_line_h_i17_k;
          when s093_end_store_line_h_i17_k =>
            row_base <= resize(row_base + resize(latched_w + to_signed(0, 16), 16), 16);
            row <= resize(row + to_signed(1, 10), 10);
            state <= s048_for_row;
          when s094_end_row =>
            cur_w <= shift_left(cur_w, to_integer(to_signed(1, 10)));
            cur_h <= shift_left(cur_h, to_integer(to_signed(1, 10)));
            state <= s095_tick;
          when s095_tick =>
            level <= resize(level + to_signed(1, 10), 10);
            state <= s011_for_level;
          when s096_end_level =>
            busy_flag <= to_signed(0, 1);
            state <= s097_tick;
          when s097_tick =>
            state <= DONE;
          when DONE =>
            done <= '1';
            state <= DONE;
        end case;
      end if;
    end if;
  end process fsm;
end architecture fossy;
